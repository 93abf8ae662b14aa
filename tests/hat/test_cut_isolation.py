"""Tests for Item and Predicate Cut Isolation via client-side caching."""

import pytest

from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction
from txn import run_txn


@pytest.fixture
def testbed():
    return build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))


class TestItemCutIsolation:
    def test_repeated_reads_return_first_value(self, testbed):
        """Fuzzy reads are impossible: the second read is served from the
        per-transaction cache even if another client overwrites the item."""
        reader = testbed.make_client("eventual+ci")
        writer = testbed.make_client("eventual")
        run_txn(testbed, writer, [Operation.write("x", "v1")])

        # Interleave: reader reads x, writer overwrites x, reader reads x again.
        long_txn = Transaction([Operation.read("x")]
                               + [Operation.read(f"pad{i}") for i in range(30)]
                               + [Operation.read("x")])
        reader_process = reader.execute(long_txn)
        writer_result = testbed.env.run_until_complete(
            writer.execute(Transaction([Operation.write("x", "v2")]))
        )
        assert writer_result.committed
        result = testbed.env.run_until_complete(reader_process)
        x_values = [obs.version.value for obs in result.reads if obs.key == "x"]
        assert len(x_values) == 2
        assert x_values[0] == x_values[1]

    def test_write_overrides_cached_read(self, testbed):
        """A transaction that overwrites an item it read sees its own value."""
        client = testbed.make_client("read-committed+ci")
        base = testbed.make_client("eventual")
        run_txn(testbed, base, [Operation.write("x", "original")])
        result = run_txn(testbed, client, [
            Operation.read("x"),
            Operation.write("x", "mine"),
            Operation.read("x"),
        ])
        x_values = [obs.version.value for obs in result.reads if obs.key == "x"]
        assert x_values[-1] == "mine"

    def test_saves_rpcs_on_duplicate_reads(self, testbed):
        plain = testbed.make_client("eventual")
        cached = testbed.make_client("eventual+ci")
        operations = [Operation.read("x"), Operation.read("x"), Operation.read("x")]
        plain_result = run_txn(testbed, plain, operations)
        cached_result = run_txn(testbed, cached, operations)
        assert len(plain_result.reads) == 3
        assert len(cached_result.reads) == 3
        # The cached run contacted the replica once, so it finished faster.
        assert cached_result.latency_ms < plain_result.latency_ms


class TestPredicateCutIsolation:
    def test_repeated_scans_return_same_cut(self, testbed):
        client = testbed.make_client("eventual+ci")
        seed = testbed.make_client("eventual")
        run_txn(testbed, seed, [Operation.write("p1", 5), Operation.write("p2", 50)])
        predicate = Operation.scan(lambda key, value: isinstance(value, int) and value > 10,
                                   name="gt10")
        result = run_txn(testbed, client, [
            predicate,
            Operation.read("p1"),
            Operation.scan(lambda key, value: isinstance(value, int) and value > 10,
                           name="gt10"),
        ])
        assert len(result.scan_results) == 2
        first = {v.key for v in result.scan_results[0]}
        second = {v.key for v in result.scan_results[1]}
        assert first == second

    def test_each_repeat_is_answered_from_its_own_predicate(self, testbed):
        """Repeating the second of two predicates returns the second's
        matches, not the first evaluation of the transaction."""
        client = testbed.make_client("eventual+ci")
        seed = testbed.make_client("eventual")
        run_txn(testbed, seed, [Operation.write("p1", 5), Operation.write("p2", 50)])

        def scan(name, match):
            return Operation.scan(
                lambda key, value: isinstance(value, int) and match(value),
                name=name)

        result = run_txn(testbed, client, [
            scan("small", lambda value: value < 10),
            scan("big", lambda value: value > 10),
            scan("big", lambda value: value > 10),
        ])
        keys = [{v.key for v in found} for found in result.scan_results]
        assert keys == [{"p1"}, {"p2"}, {"p2"}]
