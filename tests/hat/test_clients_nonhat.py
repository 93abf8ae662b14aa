"""Tests for the non-HAT clients: master, two-phase locking, quorum."""

import pytest

from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction
from txn import run_txn


@pytest.fixture
def testbed():
    return build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))


class TestMasterClient:
    def test_read_latest_across_clients(self, testbed):
        """Per-key linearizability: a read after a write sees it immediately,
        regardless of which datacenter the clients live in."""
        writer = testbed.make_client("master", home_cluster=testbed.config.cluster_names[0])
        reader = testbed.make_client("master", home_cluster=testbed.config.cluster_names[1])
        run_txn(testbed, writer, [Operation.write("x", "fresh")])
        result = run_txn(testbed, reader, [Operation.read("x")])
        assert result.value_read("x") == "fresh"

    def test_pays_wide_area_latency(self, testbed):
        """Roughly half the keys are mastered in the remote region, so an
        8-operation transaction almost surely pays at least one WAN RTT."""
        client = testbed.make_client("master")
        result = run_txn(testbed, client,
                     [Operation.write(f"key{i}", i) for i in range(8)])
        assert result.committed
        assert result.latency_ms > 50.0
        assert result.remote_rpcs >= 1

    def test_updates_replicate_asynchronously(self, testbed):
        client = testbed.make_client("master")
        run_txn(testbed, client, [Operation.write("x", 5)])
        testbed.run(1000.0)
        replicas = testbed.config.replicas_for("x")
        values = {testbed.servers[r].store.data.latest("x").value for r in replicas}
        assert values == {5}


class TestTwoPhaseLockingClient:
    def test_serializable_read_modify_write(self, testbed):
        client = testbed.make_client("two-phase-locking")
        run_txn(testbed, client, [Operation.write("x", 1)])
        result = run_txn(testbed, client, [Operation.read("x"), Operation.write("x", 2)])
        assert result.committed
        check = run_txn(testbed, client, [Operation.read("x")])
        assert check.value_read("x") == 2

    def test_locks_released_after_commit(self, testbed):
        client = testbed.make_client("two-phase-locking")
        run_txn(testbed, client, [Operation.write("x", 1)])
        # Releases are asynchronous (fire-and-forget after commit): let the
        # release message reach the lock manager before checking.
        testbed.run(1000.0)
        master = testbed.config.placements["x"].master
        assert testbed.servers[master].locks._holders.get("x") is None

    def test_conflicting_transactions_serialize(self, testbed):
        """Two read-modify-writes on the same key never both read the old value."""
        a = testbed.make_client("two-phase-locking")
        b = testbed.make_client("two-phase-locking")
        run_txn(testbed, a, [Operation.write("counter", 0)])
        txn = [Operation.read("counter"), Operation.write("counter", 1)]
        process_a = a.execute(Transaction(list(txn)))
        process_b = b.execute(Transaction(list(txn)))
        result_a = testbed.env.run_until_complete(process_a)
        result_b = testbed.env.run_until_complete(process_b)
        assert result_a.committed and result_b.committed
        # One of them must have observed the other's write (serial order).
        observed = {result_a.value_read("counter"), result_b.value_read("counter")}
        assert observed == {0, 1}

    def test_lock_timeout_aborts(self, testbed):
        blocker = testbed.make_client("two-phase-locking")
        victim = testbed.make_client("two-phase-locking", lock_timeout_ms=200.0)
        # The blocker grabs the lock and then stalls on many remote operations.
        long_txn = [Operation.read("hot")] + [Operation.read(f"other{i}") for i in range(200)]
        blocking_process = blocker.execute(Transaction(long_txn))
        # The victim starts once the blocker holds the lock, whichever of
        # the two requests the network would deliver first.
        locks = testbed.servers[testbed.config.placements["hot"].master].locks
        while locks._holders.get("hot") is None:
            testbed.env.step()
        victim_result = testbed.env.run_until_complete(
            victim.execute(Transaction([Operation.read("hot"), Operation.write("hot", 1)]))
        )
        assert not victim_result.committed
        assert not victim_result.internal_abort  # a system (external) abort
        blocker_result = testbed.env.run_until_complete(blocking_process)
        assert blocker_result.committed


class TestQuorumClient:
    def test_write_then_read_sees_latest(self, testbed):
        writer = testbed.make_client("quorum", home_cluster=testbed.config.cluster_names[0])
        reader = testbed.make_client("quorum", home_cluster=testbed.config.cluster_names[1])
        run_txn(testbed, writer, [Operation.write("x", "q-value")])
        result = run_txn(testbed, reader, [Operation.read("x")])
        assert result.value_read("x") == "q-value"

    def test_majority_requires_wide_area_round_trip(self, testbed):
        """With one replica per datacenter, a majority always crosses the WAN."""
        client = testbed.make_client("quorum")
        result = run_txn(testbed, client, [Operation.write("x", 1)])
        assert result.latency_ms > 30.0

    def test_reads_pick_highest_timestamp(self, testbed):
        client = testbed.make_client("quorum")
        run_txn(testbed, client, [Operation.write("x", "old")])
        run_txn(testbed, client, [Operation.write("x", "new")])
        result = run_txn(testbed, client, [Operation.read("x")])
        assert result.value_read("x") == "new"
