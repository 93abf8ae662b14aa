"""Integration: the paper's Section 6.2 TPC-C predictions, demonstrated.

"TPC-C requires that this counter be assigned sequentially ... this
coordination cannot be implemented in a highly available manner."  The
tests drive *concurrent* New-Order transactions against one district
through the simulated cluster:

* every HAT stack commits them all (availability) but claims duplicate
  order ids — at least one order-id anomaly, always, on a healthy network
  and with the two regions partitioned apart;
* the serializable two-phase-locking baseline serializes the
  read-modify-write and produces dense, sequential, anomaly-free ids — and
  commits nothing while the regions are partitioned apart;
* the same asymmetry holds for Delivery's exactly-once billing.
"""

import pytest

from repro.adya.history import HistoryRecorder
from repro.hat.testbed import Scenario, build_testbed
from repro.sim.process import all_of
from repro.workloads.base import run_preload
from repro.workloads.tpcc import TPCCConfig
from repro.workloads.tpcc_audit import audit_tpcc_history
from repro.workloads.tpcc_driver import TPCCDriverFactory

#: Enough per-client New-Orders that both clients overlap on the counter
#: many times; the first pair alone already collides for the HAT stacks.
NEW_ORDERS_PER_CLIENT = 8


def contended_config():
    return TPCCConfig(warehouses=1, districts_per_warehouse=1,
                      customers_per_district=5, items=20, max_order_lines=2)


def run_concurrent_new_orders(protocol, per_client=NEW_ORDERS_PER_CLIENT,
                              partitioned=False):
    """Two clients in opposite regions race New-Orders on one district,
    after the preload, optionally with the two regions partitioned apart.

    Every committed New-Order claims exactly one id, so the report's
    ``orders_claimed`` is the number that committed."""
    testbed = build_testbed(Scenario(regions=["VA", "OR"],
                                     servers_per_cluster=2))
    factory = TPCCDriverFactory(config=contended_config())
    run_preload(testbed, factory)
    if partitioned:
        testbed.partition_regions([["VA"], ["OR"]])
    recorder = HistoryRecorder()
    processes = []
    for index, cluster in enumerate(testbed.config.cluster_names):
        client = testbed.make_client(protocol, home_cluster=cluster,
                                     recorder=recorder)
        driver = factory.build(seed=index, session_id=index)

        def loop(client=client, driver=driver):
            for _ in range(per_client):
                result = yield client.execute(
                    driver.new_order(warehouse=1, district=1))
                driver.observe(result)

        processes.append(testbed.env.process(loop()))
    testbed.env.run_until_complete(all_of(testbed.env, processes))
    return audit_tpcc_history(recorder.build())


class TestOrderIdAnomalies:
    @pytest.mark.parametrize("protocol", ["eventual", "causal"])
    def test_hat_stacks_show_order_id_anomalies(self, protocol):
        """Both HAT clients commit every New-Order, and collide: the two
        streams start from the same preloaded counter, so the very first
        pair of claims is a duplicate."""
        report = run_concurrent_new_orders(protocol)
        assert report.orders_claimed == 2 * NEW_ORDERS_PER_CLIENT
        assert report.order_id_anomalies >= 1
        assert len(report.duplicate_order_ids) >= 1

    @pytest.mark.parametrize("protocol", ["eventual", "read-committed", "causal"])
    def test_hat_stacks_collide_across_a_partition(self, protocol):
        """Section 6.2's partition case, measured on the store: each side
        commits every New-Order against the counter its own region holds,
        so the two sides claim the same ids."""
        report = run_concurrent_new_orders(protocol, partitioned=True)
        assert report.orders_claimed == 2 * NEW_ORDERS_PER_CLIENT
        assert len(report.duplicate_order_ids) >= 1

    def test_serializable_locking_is_anomaly_free(self):
        """2PL serializes the counter read-modify-write: ids come out
        dense, sequential, and unique."""
        report = run_concurrent_new_orders("lock-sr")
        assert report.orders_claimed == 2 * NEW_ORDERS_PER_CLIENT
        assert report.order_id_anomalies == 0
        claims = sorted(report.claims[(1, 1)])
        assert claims == list(range(1, 2 * NEW_ORDERS_PER_CLIENT + 1))

    def test_serializable_locking_goes_dark_across_a_partition(self):
        """The price of sequential ids: with the regions apart, no New-Order
        can lock what it reads, so none commits."""
        report = run_concurrent_new_orders("lock-sr", partitioned=True)
        assert report.orders_claimed == 0

    def test_master_is_not_enough(self):
        """Single-key linearizability without multi-op isolation still
        loses the update: the paper's point that New-Order needs
        lost-update *prevention*, not just recency."""
        report = run_concurrent_new_orders("master")
        assert report.orders_claimed == 2 * NEW_ORDERS_PER_CLIENT
        assert report.order_id_anomalies >= 1


class TestDoubleDeliveries:
    def _run_mix(self, protocol, transactions_per_client=40):
        testbed = build_testbed(Scenario(regions=["VA", "OR"],
                                         servers_per_cluster=2))
        factory = TPCCDriverFactory(config=contended_config())
        run_preload(testbed, factory)
        recorder = HistoryRecorder()
        processes = []
        for index, cluster in enumerate(testbed.config.cluster_names):
            client = testbed.make_client(protocol, home_cluster=cluster,
                                         recorder=recorder)
            driver = factory.build(seed=100 + index, session_id=index)

            def loop(client=client, driver=driver):
                for _ in range(transactions_per_client):
                    result = yield client.execute(driver.next_transaction())
                    driver.observe(result)

            processes.append(testbed.env.process(loop()))
        testbed.env.run_until_complete(all_of(testbed.env, processes))
        return audit_tpcc_history(recorder.build())

    def test_hat_mix_double_delivers(self):
        # 80 transactions per client: the double-delivery race needs enough
        # Delivery/Delivery collisions to manifest for this seed under the
        # current timing model (it shows ~2 at this scale).
        report = self._run_mix("read-committed", transactions_per_client=80)
        assert len(report.double_deliveries) >= 1

    def test_locking_mix_never_double_delivers(self):
        report = self._run_mix("lock-sr", transactions_per_client=15)
        assert report.double_deliveries == []
        assert report.order_id_anomalies == 0


class TestAdyaIntegration:
    def test_recorded_tpcc_history_passes_the_base_isolation_checks(self, claims_hold):
        """The recorded TPC-C history is a full Adya history: the same
        structure the isolation-level checkers consume.  Read Committed
        must actually provide PL-2 on it (no dirty reads/writes), even
        while the *application-level* sequential-id condition fails."""
        testbed = build_testbed(Scenario(regions=["VA", "OR"],
                                         servers_per_cluster=2))
        factory = TPCCDriverFactory(config=contended_config())
        run_preload(testbed, factory)
        recorder = HistoryRecorder()
        processes = []
        for index, cluster in enumerate(testbed.config.cluster_names):
            client = testbed.make_client("read-committed",
                                         home_cluster=cluster,
                                         recorder=recorder)
            driver = factory.build(seed=7 + index, session_id=index)

            def loop(client=client, driver=driver):
                for _ in range(20):
                    result = yield client.execute(driver.next_transaction())
                    driver.observe(result)

            processes.append(testbed.env.process(loop()))
        testbed.env.run_until_complete(all_of(testbed.env, processes))
        history = recorder.build()
        claims_hold("read-committed", history)
        # Labels survive into the history for per-program grouping.
        labels = {t.label for t in history.committed()}
        assert "new-order" in labels
