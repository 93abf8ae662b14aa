"""End-to-end verification of the composite (stacked) protocols.

The registry's ``causal`` and ``mav+causal`` stacks must work through the
whole pipeline — testbed, bench runner, history recorder — and their
recorded histories must pass the Adya phenomena checks for every level they
claim.  The paper's causal HAT construction is client-centric (sticky
clients plus session caching and dependency forwarding), so Causal — the
session guarantees plus the globally-judged MRWD check — must hold even while
a partition forces every session to fail over mid-run.
"""

import pytest

from repro.adya.history import HistoryRecorder
from repro.adya.phenomena import MYR, N_MR, detect
from repro.bench.runner import RunConfig, run_workload
from repro.hat.testbed import Scenario, build_testbed
from repro.replication.antientropy import AntiEntropyConfig
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload


def record_workload(protocol, scenario, transactions_per_client=25, clients=4,
                    seed=0, partition_home_after=None):
    """Run a concurrent workload, optionally failing over mid-run."""
    testbed = build_testbed(scenario)
    recorder = HistoryRecorder()
    env = testbed.env
    rounds = []

    for index in range(clients):
        cluster = testbed.config.cluster_names[index % len(testbed.config.cluster_names)]
        client = testbed.make_client(protocol, home_cluster=cluster,
                                     recorder=recorder)
        workload = YCSBWorkload(
            YCSBConfig(operations_per_transaction=4, key_count=40,
                       write_proportion=0.5),
            seed=seed * 100 + index, session_id=index,
        )
        rounds.append((client, workload))

    committed = 0
    for step in range(transactions_per_client):
        if partition_home_after is not None and step == partition_home_after:
            dead = set(testbed.config.cluster(testbed.config.cluster_names[0]).servers)
            testbed.network.partitions.partition_by(
                lambda site: None if site in dead else "rest"
            )
        for client, workload in rounds:
            result = env.run_until_complete(
                client.execute(workload.next_transaction())
            )
            committed += bool(result.committed)
    assert committed == clients * transactions_per_client
    return recorder.build()


class TestRunnerAcceptsCompositeSpecs:
    @pytest.mark.parametrize("protocol", ["causal", "mav+causal"])
    def test_run_workload_end_to_end(self, protocol):
        stats = run_workload(RunConfig(
            protocol=protocol,
            scenario=Scenario(regions=["VA", "OR"], servers_per_cluster=2),
            workload=YCSBConfig(key_count=500),
            clients_per_cluster=2,
            duration_ms=300.0,
            warmup_ms=50.0,
        ))
        assert stats.committed > 10
        assert stats.throughput_txn_s > 0
        # Stacked HAT clients still never wait on the wide area.
        assert stats.latency.mean < 20.0


class TestCausalPhenomena:
    def test_causal_history_satisfies_claimed_level(self, claims_hold):
        claims_hold("causal", record_workload(
            "causal", Scenario(regions=["VA"], servers_per_cluster=3)))

    def test_mav_causal_history_satisfies_both_claims(self, claims_hold):
        for scenario in (Scenario(regions=["VA"], servers_per_cluster=3),
                         Scenario(regions=["VA", "OR"], servers_per_cluster=2)):
            claims_hold("mav+causal", record_workload("mav+causal", scenario))

    def test_causal_upholds_pram_across_mid_run_failover(self, claims_hold):
        """Every session keeps MR/MW/WFR/RYW while a partition forces failover."""
        scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2,
                            anti_entropy=AntiEntropyConfig(interval_ms=600_000.0))
        claims_hold("causal",
                    record_workload("causal", scenario, partition_home_after=12))

    def test_no_layer_control_violates_session_guarantees(self):
        """The same failover schedule without session layers shows the
        violations the causal stack prevents."""
        scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2,
                            anti_entropy=AntiEntropyConfig(interval_ms=600_000.0))
        history = record_workload("eventual", scenario, partition_home_after=12)
        assert detect(history, MYR) or detect(history, N_MR)


class TestStackEquivalence:
    """The single-guarantee protocols behave identically through the stack."""

    @pytest.mark.parametrize("protocol", ["eventual", "read-committed", "mav"])
    def test_single_guarantee_runs_are_reproducible(self, protocol):
        def one_run():
            return run_workload(RunConfig(
                protocol=protocol,
                scenario=Scenario(regions=["VA", "OR"], servers_per_cluster=2),
                workload=YCSBConfig(key_count=500),
                clients_per_cluster=2,
                duration_ms=300.0,
                seed=11,
            ))
        a, b = one_run(), one_run()
        assert a.committed == b.committed
        assert a.latency.mean == pytest.approx(b.latency.mean)
