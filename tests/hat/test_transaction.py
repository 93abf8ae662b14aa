"""Unit tests for transactions, operations, and results."""

import re

import pytest

from repro.errors import WorkloadError
from repro.hat.transaction import (
    Operation,
    ReadObservation,
    Transaction,
    TransactionResult,
    observed_values,
    resolve_derived,
)
from repro.storage.records import Timestamp, Version


class TestOperation:
    def test_read_constructor(self):
        op = Operation.read("x")
        assert op.is_read and not op.is_write and op.key == "x"

    def test_write_constructor(self):
        op = Operation.write("x", 42)
        assert op.is_write and op.value == 42

    def test_scan_constructor(self):
        op = Operation.scan(lambda key, value: True, name="all")
        assert op.is_scan and op.predicate_name == "all"

    def test_unknown_kind_rejected(self):
        with pytest.raises(WorkloadError):
            Operation(kind="upsert", key="x")

    def test_read_requires_key(self):
        with pytest.raises(WorkloadError):
            Operation(kind="read")

    def test_scan_requires_predicate(self):
        with pytest.raises(WorkloadError):
            Operation(kind="scan")

    @pytest.mark.parametrize("build, message", [
        (lambda: Operation.read(""), "read operation requires a key"),
        (lambda: Operation.write("", 1), "write operation requires a key"),
        (lambda: Operation.derived_write(lambda reads: ("x", 1), key=""),
         "write operation requires a key"),
        (lambda: Operation.scan(None), "scan operation requires a predicate"),
        (lambda: Operation(kind="read", key=""), "read operation requires a key"),
        (lambda: Operation(kind="upsert", key="x"),
         "unknown operation kind 'upsert'"),
    ], ids=["read", "write", "derived-write", "scan", "direct-read",
            "direct-upsert"])
    def test_every_constructor_refuses_what_cannot_run(self, build, message):
        with pytest.raises(WorkloadError, match=re.escape(message)):
            build()

    def test_fast_constructors_build_what_direct_construction_builds(self):
        def fn(reads):
            return ("x", 1)

        pairs = [(Operation.read("x"), Operation("read", "x")),
                 (Operation.write("x", 1), Operation("write", "x", 1)),
                 (Operation.derived_write(fn), Operation(
                     kind="write", key="<derived>", derive=fn))]
        for fast, direct in pairs:
            assert type(fast) is Operation and fast == direct

    def test_repr_names_every_field(self):
        assert repr(Operation.write("x", 1)) == (
            "Operation(kind='write', key='x', value=1, predicate=None, "
            "predicate_name=None, derive=None)")


class TestTransaction:
    def test_requires_operations(self):
        with pytest.raises(WorkloadError):
            Transaction(operations=[])

    def test_unique_ids(self):
        a = Transaction([Operation.read("x")])
        b = Transaction([Operation.read("x")])
        assert a.txn_id != b.txn_id

    def test_read_and_write_keys(self):
        txn = Transaction([
            Operation.write("a", 1),
            Operation.read("b"),
            Operation.write("c", 3),
            Operation.read("a"),
        ])
        assert txn.read_keys == ["b", "a"]
        assert txn.write_keys == ["a", "c"]
        assert txn.accessed_keys() == ["a", "b", "c"]

    def test_write_set_keeps_last_value(self):
        txn = Transaction([
            Operation.write("x", 1),
            Operation.write("x", 2),
        ])
        assert txn.write_set == {"x": 2}


class TestDerivedWrites:
    def _result_with_read(self, key, value):
        result = TransactionResult(txn_id=1, committed=False, protocol="eventual")
        result.reads.append(ReadObservation(
            key=key, version=Version(key, value, Timestamp(1, 1))))
        return result

    def test_derived_write_constructor(self):
        op = Operation.derived_write(lambda reads: ("k", 1))
        assert op.is_write and op.is_derived

    def test_derive_only_allowed_on_writes(self):
        with pytest.raises(WorkloadError, match="derived"):
            Operation(kind="read", key="x", derive=lambda reads: ("x", 1))

    def test_resolution_uses_reads_and_mutates_in_place(self):
        op = Operation.derived_write(
            lambda reads: ("counter", reads["counter"] + 1), key="counter")
        txn = Transaction([Operation.read("counter"), op])
        result = self._result_with_read("counter", 41)
        resolved = resolve_derived(txn, op, result)
        assert resolved.value == 42
        assert not resolved.is_derived
        assert txn.operations[1] is resolved
        assert txn.write_set == {"counter": 42}

    def test_resolution_can_derive_the_key(self):
        op = Operation.derived_write(
            lambda reads: (f"order:{reads['next']}", "pending"), key="order:?")
        txn = Transaction([Operation.read("next"), op])
        resolved = resolve_derived(txn, op, self._result_with_read("next", 7))
        assert resolved.key == "order:7"

    def test_plain_ops_pass_through(self):
        op = Operation.write("x", 1)
        txn = Transaction([op])
        result = TransactionResult(txn_id=1, committed=False, protocol="eventual")
        assert resolve_derived(txn, op, result) is op

    def test_observed_values_keeps_last_read(self):
        result = self._result_with_read("x", "old")
        result.reads.append(ReadObservation(
            key="x", version=Version("x", "new", Timestamp(2, 1))))
        assert observed_values(result) == {"x": "new"}


class TestTransactionResult:
    def test_latency(self):
        result = TransactionResult(txn_id=1, committed=True, protocol="eventual",
                                   start_ms=10.0, end_ms=25.5)
        assert result.latency_ms == pytest.approx(15.5)

    def test_value_read_returns_latest_observation(self):
        result = TransactionResult(txn_id=1, committed=True, protocol="eventual")
        result.reads.append(ReadObservation(
            key="x", version=Version("x", "first", Timestamp(1, 1))))
        result.reads.append(ReadObservation(
            key="x", version=Version("x", "second", Timestamp(2, 1))))
        assert result.value_read("x") == "second"
        assert result.value_read("missing") is None
