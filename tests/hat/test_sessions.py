"""Tests for session guarantees (Section 5.1.3)."""

import pytest

from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation
from txn import run_txn


@pytest.fixture
def testbed():
    return build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))


class TestStickySessionGuarantees:
    def test_read_your_writes_across_transactions(self, testbed):
        client = testbed.make_client("read-committed+ryw", sticky=True)
        run_txn(testbed, client, [Operation.write("profile", "v1")])
        result = run_txn(testbed, client, [Operation.read("profile")])
        assert result.value_read("profile") == "v1"
        assert client.violations() == 0

    def test_monotonic_reads_never_go_backwards(self, testbed):
        """Even if a later read hits a stale replica, the session never
        observes an older version than it has already seen."""
        client = testbed.make_client("eventual+mr", sticky=True)
        writer = testbed.make_client("eventual",
                                     home_cluster=testbed.config.cluster_names[1])
        run_txn(testbed, writer, [Operation.write("feed", "old")])
        testbed.run(1500.0)
        first = run_txn(testbed, client, [Operation.read("feed")])
        assert first.value_read("feed") == "old"
        run_txn(testbed, writer, [Operation.write("feed", "new")])
        testbed.run(1500.0)
        second = run_txn(testbed, client, [Operation.read("feed")])
        assert second.value_read("feed") == "new"
        third = run_txn(testbed, client, [Operation.read("feed")])
        assert third.value_read("feed") == "new"

    def test_session_cache_repairs_stale_replica_read(self, testbed):
        """If the contacted replica lags behind the session's own write, the
        sticky session serves the cached write (client-side caching)."""
        client = testbed.make_client(
            "read-committed+causal",
            home_cluster=testbed.config.cluster_names[0], sticky=True)
        run_txn(testbed, client, [Operation.write("inbox", "mine")])
        # Force the next read to another cluster that has not converged yet by
        # partitioning away the home cluster's servers.
        home_servers = testbed.config.cluster(testbed.config.cluster_names[0]).servers
        testbed.network.partitions.partition_by(
            lambda site: None if site in home_servers else "rest"
        )
        result = run_txn(testbed, client, [Operation.read("inbox")])
        assert result.value_read("inbox") == "mine"
        assert client.session.cache_hits >= 1


class TestNonStickySessions:
    def test_ryw_violation_possible_without_stickiness(self, testbed):
        """The paper's impossibility argument: without stickiness, a client
        forced onto a different replica can miss its own writes."""
        client = testbed.make_client(
            "read-committed+causal",
            home_cluster=testbed.config.cluster_names[0], sticky=False)
        run_txn(testbed, client, [Operation.write("cart", "item-1")])
        home_servers = testbed.config.cluster(testbed.config.cluster_names[0]).servers
        testbed.network.partitions.partition_by(
            lambda site: None if site in home_servers else "rest"
        )
        result = run_txn(testbed, client, [Operation.read("cart")])
        # The stale read is observed (not repaired) and counted as a violation.
        assert result.value_read("cart") is None
        assert client.violations() >= 1

    def test_sticky_flag_controls_repair(self, testbed):
        sticky = testbed.make_client("read-committed+causal", sticky=True)
        loose = testbed.make_client("read-committed+causal", sticky=False)
        assert sticky.sticky and not loose.sticky


class TestSessionBookkeeping:
    def test_aborted_transactions_do_not_update_state(self, testbed):
        client = testbed.make_client("read-committed+causal", sticky=True)
        # A full partition: no replica of any key is reachable, so the
        # write aborts externally.
        testbed.network.partitions.partition_by(
            lambda site: "client" if site == client.node.name else "servers")
        result = run_txn(testbed, client, [Operation.write("x", 1)])
        assert not result.committed and not result.internal_abort
        assert client.session.own_writes == {}
