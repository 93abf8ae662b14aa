"""Tests for the anti-entropy service (via a small live testbed)."""

import pytest

from repro.bench.runner import RunConfig, run_workload
from repro.hat.testbed import Scenario, Testbed, build_testbed
from repro.hat.transaction import Operation, Transaction
from repro.replication.antientropy import AntiEntropyConfig
from repro.storage.records import Timestamp, Version


@pytest.fixture
def testbed() -> Testbed:
    return build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2,
                                  anti_entropy=AntiEntropyConfig(interval_ms=5.0)))


class TestAntiEntropy:
    def test_writes_propagate_to_remote_cluster(self, testbed):
        local = testbed.make_client("eventual", home_cluster=testbed.config.cluster_names[0])
        remote = testbed.make_client("eventual", home_cluster=testbed.config.cluster_names[1])
        result = testbed.env.run_until_complete(
            local.execute(Transaction([Operation.write("user1", "hello")]))
        )
        assert result.committed
        testbed.run(1000.0)  # allow gossip rounds plus WAN latency
        read = testbed.env.run_until_complete(
            remote.execute(Transaction([Operation.read("user1")]))
        )
        assert read.value_read("user1") == "hello"

    def test_convergence_of_concurrent_writes(self, testbed):
        """Eventual consistency: all replicas agree on a last-writer-wins value."""
        clients = [testbed.make_client("eventual", home_cluster=name)
                   for name in testbed.config.cluster_names]
        for index, client in enumerate(clients):
            testbed.env.run_until_complete(
                client.execute(Transaction([Operation.write("user9", f"value-{index}")]))
            )
        testbed.run(1500.0)
        observed = set()
        for client in clients:
            result = testbed.env.run_until_complete(
                client.execute(Transaction([Operation.read("user9")]))
            )
            observed.add(result.value_read("user9"))
        assert len(observed) == 1  # every replica converged to one winner

    def test_stats_track_pushed_versions(self, testbed):
        client = testbed.make_client("eventual")
        testbed.env.run_until_complete(
            client.execute(Transaction([Operation.write("user2", "x")]))
        )
        testbed.run(200.0)
        pushed = sum(server.anti_entropy.stats.versions_pushed
                     for server in testbed.server_list())
        assert pushed >= 1

    def test_no_pushes_without_writes(self, testbed):
        testbed.run(200.0)
        pushed = sum(server.anti_entropy.stats.versions_pushed
                     for server in testbed.server_list())
        assert pushed == 0

    def test_partitioned_replica_catches_up_after_heal(self, testbed):
        local = testbed.make_client("eventual", home_cluster=testbed.config.cluster_names[0])
        remote = testbed.make_client("eventual", home_cluster=testbed.config.cluster_names[1])
        testbed.partition_regions([["VA"], ["OR"]])
        testbed.env.run_until_complete(
            local.execute(Transaction([Operation.write("user3", "only-va")]))
        )
        testbed.run(300.0)
        stale = testbed.env.run_until_complete(
            remote.execute(Transaction([Operation.read("user3")]))
        )
        assert stale.value_read("user3") is None  # partition blocks propagation
        testbed.network.partitions.clear_partition()
        testbed.run(1500.0)
        fresh = testbed.env.run_until_complete(
            remote.execute(Transaction([Operation.read("user3")]))
        )
        assert fresh.value_read("user3") == "only-va"


def _version(key: str, sequence: int) -> Version:
    return Version(key=key, value=sequence,
                   timestamp=Timestamp(sequence=sequence, client_id=1))


class TestLifecycle:
    """The shared clock skips a dead or stopped server; it never unhooks one
    for good and never runs one twice."""

    def test_a_recovered_server_replicates_again(self, testbed):
        server = testbed.server_list()[0]
        testbed.run(25.0)
        server.crash()
        testbed.run(25.0)
        server.recover()
        server.anti_entropy.mark_dirty(_version("user1", 1))
        testbed.run(450.0)
        assert server.anti_entropy.stats.versions_pushed >= 1
        assert server.anti_entropy.take_pending() == []

    def test_entries_queued_before_a_crash_are_pushed_after_recovery(self, testbed):
        server = testbed.server_list()[0]
        testbed.run(21.0)
        server.anti_entropy.mark_dirty(_version("user1", 1))
        server.crash()
        testbed.run(100.0)
        # Dead: skipped, and the clock did not stay armed for it.
        assert server.anti_entropy.stats.rounds == 0
        assert testbed.env.pending_events == 0
        server.recover()
        testbed.run(100.0)
        assert server.anti_entropy.stats.versions_pushed >= 1

    def test_stop_then_start_leaves_one_timer(self, testbed):
        """At the parent the pending tick of the first start() survived the
        stop(), so a restarted service ran rounds on both phases."""
        service = testbed.server_list()[0].anti_entropy
        testbed.run(2.0)
        service.stop()
        service.start()
        service.start()  # idempotent
        sequence = 0
        while testbed.env.now < 102.0:
            sequence += 1
            service.mark_dirty(_version(f"user{sequence}", sequence))
            testbed.run(1.0)
        # Restarted at t=2 with a 5 ms interval: rounds at 7, 12, ..., 102.
        assert service.stats.rounds == 20


def test_mav_pushes_each_write_once_to_each_remote_replica():
    """Section 6.3's cost: a write costs one put per remote replica, pushed
    by its origin (four over five clusters, two here).  A server that got a
    MAV write by ``ae.push`` used to push it on to every peer, the sender
    included: six pushes a write here, about twenty over five clusters."""
    scenario = Scenario(regions=["VA", "OR", "IR"], servers_per_cluster=1,
                        seed=0)
    testbed = build_testbed(scenario)
    pushed_by, received_by = set(), set()
    for server in testbed.server_list():
        handler = server._handlers["ae.push"]

        def recording(message, handler=handler):
            for version in message.payload["versions"]:
                pushed_by.add((message.src, version.key, version.timestamp))
                received_by.add((message.dst, version.key, version.timestamp))
            return handler(message)

        server._handlers["ae.push"] = recording
    stats = run_workload(
        RunConfig(protocol="mav", scenario=scenario, duration_ms=300.0,
                  warmup_ms=0.0, seed=0), testbed=testbed)
    testbed.run(2_000.0)
    puts = testbed.network.stats.per_kind["mav.put"]
    assert stats.committed > 50 and puts > stats.committed
    servers = testbed.server_list()
    assert all(len(server.mav._pending) == 0 for server in servers)
    regions = len(scenario.regions)
    assert (sum(s.anti_entropy.stats.versions_pushed for s in servers)
            == (regions - 1) * puts)
    assert not pushed_by & received_by  # nothing comes back to its pusher
