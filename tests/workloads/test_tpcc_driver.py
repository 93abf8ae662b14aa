"""Tests for the live TPC-C driver (derived writes + commit-fed mirror)."""

import pytest

from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation
from repro.workloads.base import run_preload
from repro.workloads.tpcc import (
    TPCCConfig,
    district_next_oid_key,
    initial_load_transactions,
    new_order_key,
    order_key,
    order_line_key,
)
from repro.workloads.tpcc_driver import (
    DELIVERED,
    PENDING,
    TPCCDriver,
    TPCCDriverFactory,
    TPCCMirror,
    parse_new_order_key,
)


def small_config():
    return TPCCConfig(warehouses=1, districts_per_warehouse=2,
                      customers_per_district=5, items=10, max_order_lines=2)


class FakeResult:
    """Just enough of a TransactionResult for mirror feeding."""

    def __init__(self, txn_id=1, committed=True, writes=None):
        self.txn_id = txn_id
        self.committed = committed
        self.writes = writes or {}
        self.reads = []


class TestKeyParsing:
    def test_new_order_key_roundtrip(self):
        assert parse_new_order_key(new_order_key(1, 2, 9)) == (1, 2, 9)
        assert parse_new_order_key("order:1:2:9") is None


class TestDerivedNewOrder:
    def test_order_id_comes_from_the_read_not_the_driver(self):
        driver = TPCCDriver(small_config(), seed=1, session_id=0)
        txn = driver.new_order(warehouse=1, district=1)
        next_key = district_next_oid_key(1, 1)
        assert txn.operations[0] == Operation.read(next_key)
        derived = [op for op in txn.operations if op.derive is not None]
        assert derived, "New-Order must carry derived writes"
        # Resolve against a pretend read of next-oid = 5.
        reads = {next_key: 5}
        resolved = {op.derive(reads)[0]: op.derive(reads)[1] for op in derived}
        assert resolved[next_key] == 6
        assert resolved[new_order_key(1, 1, 5)] == PENDING
        assert any(key.startswith("order:1:1:5") for key in resolved)

    def test_unread_counter_defaults_to_one(self):
        driver = TPCCDriver(small_config(), seed=2, session_id=0)
        txn = driver.new_order(warehouse=1, district=2)
        next_key = district_next_oid_key(1, 2)
        bump = [op for op in txn.operations if op.derive is not None][-1]
        assert bump.derive({next_key: None}) == (next_key, 2)
        assert bump.derive({}) == (next_key, 2)

    def test_label_and_session_stamped(self):
        driver = TPCCDriver(small_config(), seed=0, session_id=9)
        txn = driver.new_order()
        assert txn.label == "new-order"
        assert txn.session_id == 9


class TestStreamPins:
    """The driver's RNG draws, in order, under the default config: the
    pickers, the mix draw and every program's own draws."""

    def test_first_200_transactions_match_the_recorded_stream(self, assert_pin):
        stream = TPCCDriver(TPCCConfig(), seed=11)
        drawn = [[txn.label, txn.operations[0].key]
                 for txn in (stream.next_transaction() for _ in range(200))]
        assert_pin("tpcc-stream/seed-11", drawn)


class TestDerivedDelivery:
    def test_billing_is_conditional_on_the_status_read(self):
        config = small_config()
        mirror = TPCCMirror()
        mirror.observe(FakeResult(writes={new_order_key(1, 1, 4): PENDING}))
        driver = TPCCDriver(config, mirror=mirror, seed=3, session_id=0)
        txn = driver.delivery(warehouse=1)
        status_key = new_order_key(1, 1, 4)
        bill = [op for op in txn.operations if op.derive is not None][-1]
        bal_key, billed = bill.derive({status_key: PENDING, "x": 0})
        _, unbilled = bill.derive({status_key: DELIVERED})
        assert billed == pytest.approx(10.0)
        assert unbilled == pytest.approx(0.0)

    def test_no_pending_orders_degrades_to_probe(self):
        driver = TPCCDriver(small_config(), seed=4, session_id=0)
        txn = driver.delivery()
        assert all(op.kind == "read" for op in txn.operations)
        assert txn.label == "delivery"


class TestMirror:
    def test_fed_only_by_commits(self):
        mirror = TPCCMirror()
        mirror.observe(FakeResult(committed=False,
                                  writes={new_order_key(1, 1, 1): PENDING}))
        assert mirror.pending == {}
        mirror.observe(FakeResult(writes={new_order_key(1, 1, 1): PENDING,
                                          district_next_oid_key(1, 1): 2}))
        assert mirror.pending[(1, 1)] == [1]
        assert mirror.issued[(1, 1)] == [1]

    def test_delivered_clears_pending(self):
        mirror = TPCCMirror()
        mirror.observe(FakeResult(writes={new_order_key(1, 1, 1): PENDING}))
        mirror.observe(FakeResult(writes={new_order_key(1, 1, 2): PENDING}))
        mirror.observe(FakeResult(writes={new_order_key(1, 1, 1): DELIVERED}))
        assert mirror.pending[(1, 1)] == [2]
        assert mirror.districts_with_pending() == [(1, 1)]
        assert mirror.districts_with_pending(warehouse=2) == []

    def test_colliding_claims_are_issued_twice_but_queued_once(self):
        """Two New-Orders that read the same counter claim the same id: the
        mirror records both claims, but there is one order to deliver."""
        mirror = TPCCMirror()
        for txn_id in (1, 2):
            mirror.observe(FakeResult(txn_id=txn_id,
                                      writes={new_order_key(1, 1, 3): PENDING}))
        assert mirror.issued[(1, 1)] == [3, 3]
        assert mirror.pending[(1, 1)] == [3]

    def test_order_status_probes_the_last_issued_order(self):
        config = TPCCConfig(warehouses=1, districts_per_warehouse=1,
                            customers_per_district=5, items=10)
        driver = TPCCDriver(config, seed=6, session_id=0)
        keys = [op.key for op in driver.order_status().operations]
        assert order_key(1, 1, 1) in keys
        driver.mirror.observe(FakeResult(writes={new_order_key(1, 1, 1): PENDING}))
        driver.mirror.observe(FakeResult(writes={new_order_key(1, 1, 2): PENDING}))
        keys = [op.key for op in driver.order_status().operations]
        assert order_key(1, 1, 2) in keys
        assert order_line_key(1, 1, 2, 1) in keys

    def test_driver_observe_attributes_labels(self):
        config = small_config()
        driver = TPCCDriver(config, seed=5, session_id=0)
        txn = driver.payment(warehouse=1)
        driver.observe(FakeResult(txn_id=txn.txn_id,
                                  writes={"warehouse-ytd:1": 10.0}))
        assert driver.mirror.committed_by_type == {"payment": 1}


class TestFactory:
    def test_shared_mirror_across_clients(self):
        factory = TPCCDriverFactory(config=small_config())
        a = factory.build(seed=0, session_id=0)
        b = factory.build(seed=1, session_id=1)
        assert a.mirror is b.mirror is factory.mirror

    def test_initial_load_covers_every_district_counter(self):
        config = small_config()
        transactions = initial_load_transactions(config)
        writes = {op.key: op.value for t in transactions for op in t.operations}
        for d in range(1, config.districts_per_warehouse + 1):
            assert writes[district_next_oid_key(1, d)] == 1
        assert all(t.label == "load" for t in transactions)

    def test_mix_defaults_are_a_distribution(self):
        assert sum(TPCCConfig().mix.values()) == pytest.approx(1.0)
        factory = TPCCDriverFactory()
        assert sum(factory.config.mix.values()) == pytest.approx(1.0)


class TestThroughTestbed:
    def test_every_program_executes_and_feeds_the_mirror(self):
        testbed = build_testbed(Scenario(regions=["VA"], servers_per_cluster=2))
        factory = TPCCDriverFactory(config=small_config())
        run_preload(testbed, factory)
        # ``causal`` includes read-your-writes, so a *single* serial client
        # always re-reads its own counter increments; weaker stacks (even
        # MAV, which lacks RYW) may not — that asymmetry is the whole point.
        client = testbed.make_client("causal")
        driver = factory.build(seed=7, session_id=0)
        for _ in range(60):
            result = testbed.env.run_until_complete(
                client.execute(driver.next_transaction()))
            assert result.committed
            driver.observe(result)
        by_type = factory.mirror.committed_by_type
        assert by_type.get("new-order", 0) > 0
        assert by_type.get("payment", 0) > 0
        # One serial RYW client is anomaly-free: within each district, the
        # ids it claims are unique and densely sequential.
        for district in ((1, 1), (1, 2)):
            claims = factory.mirror.issued.get(district, [])
            assert claims == list(range(1, len(claims) + 1))
