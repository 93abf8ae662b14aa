"""Tests for the three HAT clients: eventual, Read Committed, and MAV."""

import pytest

from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction
from txn import run_txn


@pytest.fixture
def testbed():
    return build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))


class TestEventualClient:
    def test_write_then_read(self, testbed):
        client = testbed.make_client("eventual")
        run_txn(testbed, client, [Operation.write("x", 1)])
        result = run_txn(testbed, client, [Operation.read("x")])
        assert result.committed and result.value_read("x") == 1

    def test_writes_visible_immediately_at_sticky_replica(self, testbed):
        """Read Uncommitted: no buffering, each write applies on arrival."""
        client = testbed.make_client("eventual")
        result = run_txn(testbed, client, [
            Operation.write("x", 1), Operation.read("x"),
        ])
        assert result.value_read("x") == 1

    def test_latency_stays_local(self, testbed):
        """HAT clients never wait on the wide area: latency ~ intra-DC RTTs."""
        client = testbed.make_client("eventual")
        result = run_txn(testbed, client, [Operation.write("x", 1), Operation.read("x")])
        assert result.latency_ms < 20.0

    def test_scan_merges_cluster_servers(self, testbed):
        client = testbed.make_client("eventual")
        run_txn(testbed, client, [Operation.write(f"item{i}", i) for i in range(6)])
        result = run_txn(testbed, client, [
            Operation.scan(lambda key, value: isinstance(value, int) and value >= 3,
                           name="big-items"),
        ])
        values = {v.value for v in result.scan_results[0]}
        assert values == {3, 4, 5}

    def test_remote_reads_are_stale_until_antientropy(self, testbed):
        local = testbed.make_client("eventual", home_cluster=testbed.config.cluster_names[0])
        remote = testbed.make_client("eventual", home_cluster=testbed.config.cluster_names[1])
        run_txn(testbed, local, [Operation.write("x", "new")])
        stale = run_txn(testbed, remote, [Operation.read("x")])
        assert stale.value_read("x") is None  # not yet propagated
        testbed.run(1000.0)
        fresh = run_txn(testbed, remote, [Operation.read("x")])
        assert fresh.value_read("x") == "new"


class TestReadCommittedClient:
    def test_buffered_writes_apply_at_commit(self, testbed):
        client = testbed.make_client("read-committed")
        result = run_txn(testbed, client, [Operation.write("x", 10), Operation.read("x")])
        # The read observes the client's own buffered write.
        assert result.value_read("x") == 10
        follow_up = run_txn(testbed, client, [Operation.read("x")])
        assert follow_up.value_read("x") == 10

    def test_no_dirty_reads_between_clients(self, testbed):
        """A concurrent reader never observes another client's unflushed buffer."""
        writer = testbed.make_client("read-committed")
        reader = testbed.make_client("read-committed")
        # Start a long transaction whose writes stay buffered until commit; the
        # reader runs entirely before the writer's commit point.
        writer_txn = Transaction([Operation.write("x", "uncommitted")]
                                 + [Operation.read(f"pad{i}") for i in range(50)])
        writer_process = writer.execute(writer_txn)
        reader_result = testbed.env.run_until_complete(
            reader.execute(Transaction([Operation.read("x")]))
        )
        assert reader_result.value_read("x") is None
        writer_result = testbed.env.run_until_complete(writer_process)
        assert writer_result.committed

    def test_commit_flushes_all_writes(self, testbed):
        client = testbed.make_client("read-committed")
        run_txn(testbed, client, [Operation.write("a", 1), Operation.write("b", 2)])
        result = run_txn(testbed, client, [Operation.read("a"), Operation.read("b")])
        assert result.value_read("a") == 1 and result.value_read("b") == 2


class TestMAVClient:
    def test_commit_becomes_visible_after_stabilization(self, testbed):
        client = testbed.make_client("mav")
        run_txn(testbed, client, [Operation.write("x", 1), Operation.write("y", 1)])
        testbed.run(1500.0)
        result = run_txn(testbed, client, [Operation.read("x"), Operation.read("y")])
        assert result.value_read("x") == 1 and result.value_read("y") == 1

    def test_atomic_visibility_all_or_nothing(self, testbed):
        """Once any write of a transaction is seen, its siblings are seen too."""
        writer = testbed.make_client("mav", home_cluster=testbed.config.cluster_names[0])
        reader = testbed.make_client("mav", home_cluster=testbed.config.cluster_names[1])
        run_txn(testbed, writer, [Operation.write("acct-a", 100),
                              Operation.write("acct-b", 200)])
        testbed.run(2000.0)
        result = run_txn(testbed, reader, [Operation.read("acct-a"), Operation.read("acct-b")])
        values = (result.value_read("acct-a"), result.value_read("acct-b"))
        assert values in ((100, 200), (None, None)) or values == (100, 200)
        assert values == (100, 200)

    def test_read_own_buffered_writes(self, testbed):
        client = testbed.make_client("mav")
        result = run_txn(testbed, client, [
            Operation.write("x", 7), Operation.read("x"),
        ])
        assert result.value_read("x") == 7

    def test_metadata_includes_all_siblings(self, testbed):
        client = testbed.make_client("mav")
        run_txn(testbed, client, [Operation.write("k1", 1), Operation.write("k2", 2),
                              Operation.write("k3", 3)])
        testbed.run(1500.0)
        # Every server that holds one of the keys stores its sibling list.
        found_siblings = set()
        for server in testbed.server_list():
            for key in ("k1", "k2", "k3"):
                version = server.store.data.latest(key)
                if version.value is not None:
                    found_siblings |= set(version.siblings)
        assert found_siblings == {"k1", "k2", "k3"}
