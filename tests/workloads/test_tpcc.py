"""Unit tests for the TPC-C workload generator."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.tpcc import (
    DELIVERY,
    NEW_ORDER,
    ORDER_STATUS,
    PAYMENT,
    STOCK_LEVEL,
    TPCCConfig,
    TPCCWorkload,
    district_next_oid_key,
    initial_load_transactions,
    new_order_key,
    stock_key,
)


@pytest.fixture
def workload():
    return TPCCWorkload(TPCCConfig(warehouses=2, districts_per_warehouse=2,
                                   customers_per_district=5, items=20), seed=1)


class TestTPCCConfig:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            TPCCConfig(warehouses=0)
        with pytest.raises(WorkloadError):
            TPCCConfig(mix={NEW_ORDER: 0.5})


class TestInitialLoad:
    def test_populates_warehouses_districts_and_stock(self, workload):
        transactions = initial_load_transactions(workload.config)
        keys = {op.key for txn in transactions for op in txn.operations}
        assert "warehouse:1" in keys and "warehouse:2" in keys
        assert district_next_oid_key(1, 1) in keys
        assert stock_key(2, 20) in keys

    def test_initial_state_counters(self, workload):
        assert workload.state.next_order_id[(1, 1)] == 1
        assert workload.state.stock_level[(1, 5)] == 100
        assert workload.state.warehouse_ytd[1] == 0.0


class TestNewOrder:
    def test_writes_order_lines_and_stock(self, workload):
        txn = workload.new_order(warehouse=1, district=1)
        assert txn.label == NEW_ORDER
        write_keys = [op.key for op in txn.operations if op.is_write]
        assert any(key.startswith("order:1:1:") for key in write_keys)
        assert any(key.startswith("order-line:1:1:") for key in write_keys)
        assert any(key.startswith("stock:1:") for key in write_keys)
        assert district_next_oid_key(1, 1) in write_keys
        assert new_order_key(1, 1, 1) in write_keys

    def test_order_ids_increment_per_district(self, workload):
        workload.new_order(warehouse=1, district=1)
        workload.new_order(warehouse=1, district=1)
        workload.new_order(warehouse=1, district=2)
        assert workload.state.issued_order_ids[(1, 1)] == [1, 2]
        assert workload.state.issued_order_ids[(1, 2)] == [1]

    def test_stock_never_negative(self, workload):
        for _ in range(200):
            workload.new_order(warehouse=1)
        assert all(level >= 0 for level in workload.state.stock_level.values())

    def test_reads_district_counter_and_stock(self, workload):
        txn = workload.new_order(warehouse=1, district=1)
        read_keys = [op.key for op in txn.operations if op.is_read]
        assert district_next_oid_key(1, 1) in read_keys
        assert any(key.startswith("stock:1:") for key in read_keys)


class TestPayment:
    def test_updates_three_balances_atomically(self, workload):
        txn = workload.payment(warehouse=1)
        write_keys = [op.key for op in txn.operations if op.is_write]
        assert any(key.startswith("warehouse-ytd:") for key in write_keys)
        assert any(key.startswith("district-ytd:") for key in write_keys)
        assert any(key.startswith("customer-balance:") for key in write_keys)
        assert any(key.startswith("payment-history:") for key in write_keys)

    def test_driver_state_tracks_ytd_sums(self, workload):
        before = workload.state.warehouse_ytd[1]
        workload.payment(warehouse=1)
        assert workload.state.warehouse_ytd[1] > before


class TestReadOnlyTransactions:
    def test_order_status_is_read_only(self, workload):
        txn = workload.order_status()
        assert txn.label == ORDER_STATUS
        assert all(op.is_read for op in txn.operations)

    def test_stock_level_is_read_only(self, workload):
        txn = workload.stock_level()
        assert txn.label == STOCK_LEVEL
        assert all(op.is_read for op in txn.operations)


class TestDelivery:
    def test_delivery_pops_pending_order(self, workload):
        workload.new_order(warehouse=1, district=1)
        assert workload.state.pending_orders[(1, 1)] == [1]
        # Deliver repeatedly until district (1, 1) is drained.
        for _ in range(50):
            workload.delivery(warehouse=1)
        assert workload.state.pending_orders[(1, 1)] == []

    def test_delivery_with_empty_queue_degrades_to_read(self, workload):
        txn = workload.delivery(warehouse=1)
        assert txn.label == DELIVERY
        assert all(op.is_read for op in txn.operations)


class TestMix:
    def test_next_transaction_follows_mix(self, workload):
        counts = {}
        for _ in range(500):
            txn = workload.next_transaction()
            counts[txn.label] = counts.get(txn.label, 0) + 1
        assert counts[NEW_ORDER] > counts.get(STOCK_LEVEL, 0)
        assert counts[PAYMENT] > counts.get(DELIVERY, 0)
        assert set(counts) <= {NEW_ORDER, PAYMENT, ORDER_STATUS, DELIVERY, STOCK_LEVEL}
