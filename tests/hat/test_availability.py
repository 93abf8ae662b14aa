"""Availability under network partitions: the paper's central claim.

HAT protocols keep committing when every accessed item has *some* reachable
replica (transactional availability, Section 4.2); master, two-phase locking,
and quorum configurations block or abort when the partition separates the
client from masters or majorities (Section 5.2 / 6.1).
"""

import pytest

from repro.hat.protocols import HAT_PROTOCOLS
from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction


@pytest.fixture
def partitioned_testbed():
    """VA and OR cannot talk to each other; clients are in VA."""
    testbed = build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))
    testbed.partition_regions([["VA"], ["OR"]])
    return testbed


def run(testbed, client, operations, timeout_ms=None):
    kwargs = {} if timeout_ms is None else {"rpc_timeout_ms": timeout_ms}
    return testbed.env.run_until_complete(
        client.execute(Transaction(list(operations)))
    )


OPS = [Operation.write("k1", 1), Operation.write("k2", 2),
       Operation.read("k1"), Operation.read("k2")]


class TestHATAvailabilityUnderPartition:
    @pytest.mark.parametrize("protocol", HAT_PROTOCOLS)
    def test_hat_protocols_commit_during_partition(self, partitioned_testbed, protocol):
        client = partitioned_testbed.make_client(protocol)
        result = run(partitioned_testbed, client, OPS)
        assert result.committed, f"{protocol} should stay available: {result.error}"

    @pytest.mark.parametrize("protocol", HAT_PROTOCOLS)
    def test_hat_latency_unaffected_by_partition(self, partitioned_testbed, protocol):
        client = partitioned_testbed.make_client(protocol)
        result = run(partitioned_testbed, client, OPS)
        assert result.latency_ms < 50.0

    def test_replica_unavailability_aborts_externally(self):
        """If *no* replica of an item is reachable, even HATs cannot proceed —
        that is the replica-availability precondition, not a HAT failure."""
        testbed = build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=1))
        client = testbed.make_client("eventual")
        # Cut the client off from every server.
        testbed.network.partitions.partition([[client.node.name]])
        result = run(testbed, client, [Operation.write("x", 1)])
        assert not result.committed
        assert not result.internal_abort


class TestNonHATUnavailabilityUnderPartition:
    def test_master_blocks_for_remote_keys(self, partitioned_testbed):
        client = partitioned_testbed.make_client("master")
        # Find a key mastered in the unreachable region.
        remote_key = next(
            key for key in (f"key{i}" for i in range(100))
            if partitioned_testbed.config.cluster_of_server(
                partitioned_testbed.config.master_for(key)
            ) == partitioned_testbed.config.cluster_names[1]
        )
        result = run(partitioned_testbed, client, [Operation.write(remote_key, 1)])
        assert not result.committed

    def test_quorum_unreachable_with_minority(self, partitioned_testbed):
        client = partitioned_testbed.make_client("quorum")
        result = run(partitioned_testbed, client, [Operation.write("x", 1)])
        # With one replica per side of a two-way split, a majority of two is
        # unreachable from either side.
        assert not result.committed

    def test_two_phase_locking_aborts_on_remote_master(self, partitioned_testbed):
        client = partitioned_testbed.make_client("two-phase-locking",
                                                 lock_timeout_ms=300.0)
        remote_key = next(
            key for key in (f"key{i}" for i in range(100))
            if partitioned_testbed.config.cluster_of_server(
                partitioned_testbed.config.master_for(key)
            ) == partitioned_testbed.config.cluster_names[1]
        )
        result = run(partitioned_testbed, client, [Operation.write(remote_key, 1)])
        assert not result.committed


class TestRecoveryAfterHeal:
    def test_non_hat_protocols_recover_after_heal(self):
        testbed = build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))
        testbed.partition_regions([["VA"], ["OR"]])
        client = testbed.make_client("quorum")
        blocked = run(testbed, client, [Operation.write("x", 1)])
        assert not blocked.committed
        testbed.network.partitions.heal()
        recovered = run(testbed, client, [Operation.write("x", 1)])
        assert recovered.committed
