"""Unit tests for the TPC-C schema and the shape of the driver's programs."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.tpcc import (
    DELIVERY,
    NEW_ORDER,
    ORDER_STATUS,
    PAYMENT,
    STOCK_LEVEL,
    TPCCConfig,
    district_next_oid_key,
    initial_load_transactions,
    new_order_key,
    stock_key,
    warehouse_ytd_key,
)
from repro.workloads.tpcc_driver import DELIVERED, PENDING, TPCCDriver


class FakeResult:
    """Just enough of a committed TransactionResult to feed the mirror."""

    def __init__(self, txn_id, writes):
        self.txn_id = txn_id
        self.committed = True
        self.writes = writes


@pytest.fixture
def driver():
    return TPCCDriver(TPCCConfig(warehouses=2, districts_per_warehouse=2,
                                 customers_per_district=5, items=20), seed=1)


@pytest.fixture
def store(driver):
    """``key -> value`` after the initial load."""
    return {op.key: op.value for txn in initial_load_transactions(driver.config)
            for op in txn.operations}


def resolved_writes(txn, reads):
    """``key -> value`` of every write, derived ones resolved against
    ``reads`` as a protocol client would."""
    return dict(op.derive(reads) if op.derive is not None else (op.key, op.value)
                for op in txn.operations if op.kind == "write")


def commit_serially(driver, txn, store):
    """Run ``txn`` as a serial execution would: its reads see every earlier
    commit, its writes land in ``store`` and the result feeds the mirror."""
    reads = {op.key: store.get(op.key) for op in txn.operations if op.kind == "read"}
    writes = resolved_writes(txn, reads)
    store.update(writes)
    driver.observe(FakeResult(txn.txn_id, writes))
    return writes


class TestTPCCConfig:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            TPCCConfig(warehouses=0)
        with pytest.raises(WorkloadError):
            TPCCConfig(mix={NEW_ORDER: 0.5})

    @pytest.mark.parametrize("field, kwargs", [
        ("items", dict(items=0)),
        ("customers_per_district", dict(customers_per_district=0)),
        ("max_order_lines", dict(max_order_lines=0)),
        ("mix", dict(mix={NEW_ORDER: 0.5, "refund": 0.5})),
        ("mix", dict(mix={NEW_ORDER: 1.5, PAYMENT: -0.5})),
        ("districts_per_warehouse", dict(districts_per_warehouse=0)),
    ], ids=["no-items", "no-customers", "no-order-lines", "unknown-program",
            "negative-share", "no-districts"])
    def test_rejects_what_cannot_run(self, field, kwargs):
        with pytest.raises(WorkloadError, match=f"TPCCConfig.{field}"):
            TPCCConfig(**kwargs)


class TestInitialLoad:
    def test_populates_warehouses_districts_and_stock(self, driver):
        transactions = initial_load_transactions(driver.config)
        keys = {op.key for txn in transactions for op in txn.operations}
        assert "warehouse:1" in keys and "warehouse:2" in keys
        assert district_next_oid_key(1, 1) in keys
        assert stock_key(2, 20) in keys

    def test_initial_state_counters(self, driver):
        writes = {op.key: op.value
                  for txn in initial_load_transactions(driver.config)
                  for op in txn.operations}
        assert writes[district_next_oid_key(1, 1)] == 1
        assert writes[stock_key(1, 5)] == 100
        assert writes[warehouse_ytd_key(1)] == 0.0


class TestNewOrder:
    def test_writes_order_lines_and_stock(self, driver):
        txn = driver.new_order(warehouse=1, district=1)
        assert txn.label == NEW_ORDER
        write_keys = list(resolved_writes(txn, {district_next_oid_key(1, 1): 1}))
        assert any(key.startswith("order:1:1:") for key in write_keys)
        assert any(key.startswith("order-line:1:1:") for key in write_keys)
        assert any(key.startswith("stock:1:") for key in write_keys)
        assert district_next_oid_key(1, 1) in write_keys
        assert new_order_key(1, 1, 1) in write_keys

    def test_order_ids_increment_per_district(self, driver, store):
        for district in (1, 1, 2):
            commit_serially(driver, driver.new_order(warehouse=1, district=district),
                            store)
        assert driver.mirror.issued[(1, 1)] == [1, 2]
        assert driver.mirror.issued[(1, 2)] == [1]
        assert store[district_next_oid_key(1, 1)] == 3

    def test_stock_never_negative(self, driver):
        """A stock read of 10 drops below 10 for any quantity (1-10), so
        TPC-C's restock rule adds 91: the derived level is 101 - quantity."""
        for _ in range(20):
            txn = driver.new_order(warehouse=1, district=1)
            writes = resolved_writes(txn, {op.key: 10 for op in txn.operations
                                           if op.kind == "read"})
            lines = [value for key, value in writes.items()
                     if key.startswith("order-line:")]
            assert lines
            for line in lines:
                level = writes[stock_key(1, line["item"])]
                assert level == 101 - line["quantity"] and level >= 0

    def test_stock_above_the_threshold_is_only_decremented(self, driver):
        """A stock read of 50 stays at or above 10 for any quantity, so no
        restock: the derived level is 50 - quantity."""
        for _ in range(20):
            txn = driver.new_order(warehouse=1, district=1)
            writes = resolved_writes(txn, {op.key: 50 for op in txn.operations
                                           if op.kind == "read"})
            lines = [value for key, value in writes.items()
                     if key.startswith("order-line:")]
            assert lines
            for line in lines:
                assert writes[stock_key(1, line["item"])] == 50 - line["quantity"]

    def test_reads_district_counter_and_stock(self, driver):
        txn = driver.new_order(warehouse=1, district=1)
        read_keys = [op.key for op in txn.operations if op.kind == "read"]
        assert district_next_oid_key(1, 1) in read_keys
        assert any(key.startswith("stock:1:") for key in read_keys)


class TestPayment:
    def test_updates_three_balances_atomically(self, driver):
        txn = driver.payment(warehouse=1)
        write_keys = [op.key for op in txn.operations if op.kind == "write"]
        assert any(key.startswith("warehouse-ytd:") for key in write_keys)
        assert any(key.startswith("district-ytd:") for key in write_keys)
        assert any(key.startswith("customer-balance:") for key in write_keys)
        assert any(key.startswith("payment-history:") for key in write_keys)

    def test_increments_derive_from_the_observed_totals(self, driver):
        txn = driver.payment(warehouse=1)
        balances = [op.key for op in txn.operations if op.kind == "read"]
        writes = resolved_writes(txn, dict.fromkeys(balances, 100.0))
        amount = next(value["amount"] for key, value in writes.items()
                      if key.startswith("payment-history:"))
        warehouse_ytd, district_ytd, balance = (writes[key] for key in balances)
        assert warehouse_ytd == district_ytd == pytest.approx(100.0 + amount)
        assert balance == pytest.approx(100.0 - amount)

    def test_serial_payments_sum_into_the_warehouse_ytd(self, driver, store):
        amounts = []
        for _ in range(3):
            writes = commit_serially(driver, driver.payment(warehouse=1), store)
            amounts.extend(value["amount"] for key, value in writes.items()
                           if key.startswith("payment-history:"))
        assert len(amounts) == 3
        assert store[warehouse_ytd_key(1)] == pytest.approx(sum(amounts))
        assert driver.mirror.committed_by_type == {PAYMENT: 3}


class TestReadOnlyTransactions:
    def test_order_status_is_read_only(self, driver):
        txn = driver.order_status()
        assert txn.label == ORDER_STATUS
        assert all(op.kind == "read" for op in txn.operations)

    def test_stock_level_is_read_only(self, driver):
        txn = driver.stock_level()
        assert txn.label == STOCK_LEVEL
        assert all(op.kind == "read" for op in txn.operations)


class TestDelivery:
    def test_delivery_pops_pending_order(self, driver):
        driver.mirror.observe(FakeResult(0, {new_order_key(1, 1, 1): PENDING}))
        assert driver.mirror.pending[(1, 1)] == [1]
        txn = driver.delivery(warehouse=1)
        writes = resolved_writes(txn, {new_order_key(1, 1, 1): PENDING})
        assert writes[new_order_key(1, 1, 1)] == DELIVERED
        driver.observe(FakeResult(txn.txn_id, writes))
        assert driver.mirror.pending[(1, 1)] == []

    def test_delivery_with_empty_queue_degrades_to_read(self, driver):
        txn = driver.delivery(warehouse=1)
        assert txn.label == DELIVERY
        assert all(op.kind == "read" for op in txn.operations)


class TestMix:
    def test_next_transaction_follows_mix(self, driver):
        counts = {}
        for _ in range(500):
            txn = driver.next_transaction()
            counts[txn.label] = counts.get(txn.label, 0) + 1
        assert counts[NEW_ORDER] > counts.get(STOCK_LEVEL, 0)
        assert counts[PAYMENT] > counts.get(DELIVERY, 0)
        assert set(counts) <= {NEW_ORDER, PAYMENT, ORDER_STATUS, DELIVERY, STOCK_LEVEL}
