"""Unit tests for the YCSB-style workload generator."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload


class TestYCSBConfig:
    def test_paper_defaults(self):
        config = YCSBConfig()
        assert config.operations_per_transaction == 8
        assert config.write_proportion == 0.5
        assert config.key_count == 100_000
        assert config.distribution == "uniform"

    def test_validation(self):
        with pytest.raises(WorkloadError):
            YCSBConfig(operations_per_transaction=0)
        with pytest.raises(WorkloadError):
            YCSBConfig(write_proportion=1.5)
        with pytest.raises(WorkloadError):
            YCSBConfig(distribution="gaussian")


class TestYCSBWorkload:
    def test_transaction_shape(self):
        workload = YCSBWorkload(YCSBConfig(operations_per_transaction=8))
        txn = workload.next_transaction()
        assert len(txn.operations) == 8
        assert all(op.kind in ("read", "write") for op in txn.operations)

    def test_write_proportion_extremes(self):
        all_reads = YCSBWorkload(YCSBConfig(write_proportion=0.0)).next_transaction()
        all_writes = YCSBWorkload(YCSBConfig(write_proportion=1.0)).next_transaction()
        assert all(op.kind == "read" for op in all_reads.operations)
        assert all(op.kind == "write" for op in all_writes.operations)

    def test_write_proportion_statistics(self):
        workload = YCSBWorkload(YCSBConfig(write_proportion=0.3,
                                           operations_per_transaction=10), seed=1)
        operations = [op for _ in range(300)
                      for op in workload.next_transaction().operations]
        writes = sum(1 for op in operations if op.kind == "write")
        assert writes / len(operations) == pytest.approx(0.3, abs=0.05)

    def test_keys_within_configured_space(self):
        workload = YCSBWorkload(YCSBConfig(key_count=50), seed=2)
        for txn in (workload.next_transaction() for _ in range(50)):
            for op in txn.operations:
                assert op.key.startswith("user")
                assert 0 <= int(op.key[4:]) < 50

    def test_deterministic_given_seed(self):
        a = YCSBWorkload(YCSBConfig(key_count=100), seed=3)
        b = YCSBWorkload(YCSBConfig(key_count=100), seed=3)
        txn_a, txn_b = a.next_transaction(), b.next_transaction()
        assert [(op.kind, op.key) for op in txn_a.operations] == \
               [(op.kind, op.key) for op in txn_b.operations]

    def test_session_id_propagates(self):
        workload = YCSBWorkload(session_id=42)
        assert workload.next_transaction().session_id == 42

    def test_zipfian_mode(self):
        workload = YCSBWorkload(YCSBConfig(distribution="zipfian", key_count=1000), seed=4)
        keys = [op.key for _ in range(100)
                for op in workload.next_transaction().operations]
        assert len(set(keys)) < len(keys)  # repeats exist under skew
