"""Integration tests for live join/leave with version handoff."""

import pytest

from repro.errors import ReproError
from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction


def ring_testbed(**overrides):
    defaults = dict(regions=["VA", "OR"], servers_per_cluster=2,
                    placement="ring", fixed_latency_ms=1.0)
    defaults.update(overrides)
    return build_testbed(Scenario(**defaults))


def preload(testbed, count=200):
    client = testbed.make_client("eventual",
                                 home_cluster=testbed.config.cluster_names[0])
    for index in range(count):
        testbed.env.run_until_complete(client.execute(
            Transaction([Operation.write(f"key{index}", index)])))
    testbed.run(100.0)  # let anti-entropy replicate the preload
    return client


class TestJoin:
    def test_join_adds_a_routable_server_after_catchup(self):
        testbed = ring_testbed()
        preload(testbed)
        cluster = testbed.config.clusters[0]
        before = list(cluster.servers)
        record = testbed.membership.scale_out(cluster.name)
        assert cluster.servers == before  # not routable before catch-up
        testbed.run(500.0)
        assert record.done
        assert record.server in cluster.servers
        assert testbed.config.cluster_of_server(record.server) == cluster.name

    def test_joiner_holds_every_moved_key(self):
        testbed = ring_testbed()
        preload(testbed)
        record = testbed.membership.scale_out(testbed.config.cluster_names[0])
        testbed.run(500.0)
        joiner = testbed.servers[record.server]
        assert record.keys_moved > 0
        for key in record.moved_keys:
            assert testbed.config.local_replica_for(
                key, record.cluster) == record.server
            assert joiner.store.data.versions(key), key

    def test_moved_fraction_near_consistent_hash_ideal(self):
        testbed = ring_testbed()
        preload(testbed, count=400)
        record = testbed.membership.scale_out(testbed.config.cluster_names[0])
        testbed.run(500.0)
        fraction = record.keys_moved_fraction
        assert fraction is not None
        # Acceptance bound: within 2x of 1/n for a single join.
        assert fraction <= 2.0 * record.ideal_fraction
        assert fraction >= record.ideal_fraction / 2.0

    def test_writes_during_handoff_reach_the_joiner(self):
        """Writes racing the handoff converge on the joiner (no reads lost).

        Rewrites of every preloaded key are interleaved with the handoff:
        writes accepted by a prior owner before its fetch scan travel in
        the handoff itself, writes accepted after it arrive through the
        flip-time dirty-set repair, and writes after the epoch flip route
        to the joiner directly.  All three paths must converge.
        """
        testbed = ring_testbed()
        client = preload(testbed, count=100)
        cluster_name = testbed.config.cluster_names[0]
        record = testbed.membership.scale_out(cluster_name)
        for index in range(100):
            testbed.env.run_until_complete(client.execute(
                Transaction([Operation.write(f"key{index}", "during-handoff")])))
        testbed.run(200.0)
        assert record.done
        joiner = testbed.servers[record.server]
        for key in record.moved_keys:
            assert joiner.store.data.latest(key).value == "during-handoff", key

    def test_handoff_stats_counted_on_prior_owners(self):
        testbed = ring_testbed()
        preload(testbed)
        cluster = testbed.config.clusters[0]
        owners = list(cluster.servers)
        testbed.membership.scale_out(cluster.name)
        testbed.run(500.0)
        served = sum(testbed.servers[o].handoff.fetches_served for o in owners)
        sent = sum(testbed.servers[o].handoff.versions_sent for o in owners)
        assert served == len(owners)
        assert sent > 0


class TestRemoteHopsFollowTheLiveConfig:
    """A client built before a join counts the joiner as a home server."""

    @pytest.mark.parametrize("protocol, route, remote", [
        ("eventual", "local_replica_for", 0),
        ("master", "master_for", 0),
        ("two-phase-locking", "master_for", 0),
        ("quorum", "local_replica_for", 1),  # the OR replica, not the joiner
    ])
    def test_an_operation_served_by_the_joiner_is_not_remote(
            self, protocol, route, remote):
        testbed = ring_testbed()
        home = testbed.config.cluster_names[0]
        client = testbed.make_client(protocol, home_cluster=home)
        record = testbed.membership.scale_out(home)
        testbed.run(500.0)
        assert record.done
        config = testbed.config
        served = (config.local_replica_for if route == "local_replica_for"
                  else lambda key, _home: config.master_for(key))
        key = next(key for key in (f"user{i}" for i in range(1_000))
                   if served(key, home) == record.server)
        result = testbed.env.run_until_complete(client.execute(
            Transaction([Operation.read(key)])))
        assert result.committed
        assert result.remote_rpcs == remote


class TestLeave:
    def test_leave_drains_owned_keys_to_successors(self):
        testbed = ring_testbed(servers_per_cluster=3)
        preload(testbed)
        cluster = testbed.config.clusters[0]
        record = testbed.membership.scale_in(cluster.name)
        testbed.run(1_000.0)
        assert record.done
        assert record.server not in cluster.servers
        assert record.server in testbed.retired
        for key in record.moved_keys:
            owner = testbed.config.local_replica_for(key, cluster.name)
            assert testbed.servers[owner].store.data.versions(key), key

    def test_leave_is_a_noop_on_a_single_server_cluster(self):
        testbed = ring_testbed(regions=["VA"], servers_per_cluster=1)
        assert testbed.membership.scale_in(testbed.config.cluster_names[0]) is None

    def test_scale_in_prefers_the_most_recent_joiner(self):
        testbed = ring_testbed()
        cluster_name = testbed.config.cluster_names[0]
        join = testbed.membership.scale_out(cluster_name)
        testbed.run(500.0)
        leave = testbed.membership.scale_in(cluster_name)
        testbed.run(1_000.0)
        assert leave.server == join.server

    def test_unknown_leave_target_rejected(self):
        testbed = ring_testbed()
        with pytest.raises(ReproError):
            testbed.membership.scale_in(testbed.config.cluster_names[0],
                                        server_name="nope")

    def test_departed_server_no_longer_serves(self):
        testbed = ring_testbed(servers_per_cluster=3)
        preload(testbed)
        cluster_name = testbed.config.cluster_names[0]
        record = testbed.membership.scale_in(cluster_name)
        testbed.run(1_000.0)
        leaver = testbed.retired[record.server]
        assert not leaver.alive
        # Clients keep committing against the shrunk cluster.
        client = testbed.make_client("eventual", home_cluster=cluster_name)
        result = testbed.env.run_until_complete(client.execute(
            Transaction([Operation.write("fresh", 1),
                         Operation.read("fresh")])))
        assert result.committed


class TestSerialization:
    def test_concurrent_events_on_one_cluster_are_deferred(self):
        testbed = ring_testbed()
        preload(testbed)
        cluster = testbed.config.clusters[0]
        first = testbed.membership.scale_out(cluster.name)
        # Fired while the join is still streaming: deferred, not dropped.
        second = testbed.membership.scale_out(cluster.name)
        assert second is None
        testbed.run(2_000.0)
        records = [r for r in testbed.membership.records if r.kind == "join"]
        assert len(records) == 2
        assert all(r.done for r in records)
        assert first.end_ms <= records[1].start_ms
        assert len(cluster.servers) == 4


class TestReplicationObligations:
    """Partition-deferred pushes must survive membership churn."""

    def test_deferred_pushes_retarget_after_a_join(self):
        """A write deferred toward a partitioned peer still reaches both the
        joiner (via the flip repair) and, after the heal, the remote owner
        (the owed set is recomputed from the live config, not frozen)."""
        testbed = ring_testbed()
        client = preload(testbed, count=100)
        testbed.partition_regions([["VA"], ["OR"]])
        for index in range(100):
            testbed.env.run_until_complete(client.execute(
                Transaction([Operation.write(f"key{index}", "partition-era")])))
        record = testbed.membership.scale_out(testbed.config.cluster_names[0])
        testbed.run(500.0)
        assert record.done
        joiner = testbed.servers[record.server]
        for key in record.moved_keys:
            assert joiner.store.data.latest(key).value == "partition-era", key
        testbed.network.partitions.heal()
        testbed.run(500.0)
        remote = testbed.config.cluster_names[1]
        for index in range(100):
            key = f"key{index}"
            owner = testbed.servers[
                testbed.config.local_replica_for(key, remote)]
            assert owner.store.data.latest(key).value == "partition-era", key

    def test_leaver_obligations_survive_decommission_under_partition(self):
        """Writes a leaver could not replicate across a partition are handed
        to its successors, not destroyed with its anti-entropy service."""
        testbed = ring_testbed(servers_per_cluster=3)
        client = preload(testbed, count=100)
        testbed.partition_regions([["VA"], ["OR"]])
        for index in range(100):
            testbed.env.run_until_complete(client.execute(
                Transaction([Operation.write(f"key{index}", "partition-era")])))
        leaver = testbed.servers[testbed.config.clusters[0].servers[-1]]
        examined = leaver.anti_entropy.stats.entries_examined
        # Rounds examine the leaver's writes and park them (OR is cut off):
        # the handoff must drain the parked set, not only the fresh marks.
        testbed.run(50.0)
        assert leaver.anti_entropy.stats.entries_examined > examined
        record = testbed.membership.scale_in(testbed.config.cluster_names[0])
        testbed.run(2_000.0)
        assert record.done and record.server in testbed.retired
        assert record.server == leaver.name
        assert leaver.anti_entropy.take_pending() == []
        testbed.network.partitions.heal()
        testbed.run(500.0)
        remote = testbed.config.cluster_names[1]
        for index in range(100):
            key = f"key{index}"
            owner = testbed.servers[
                testbed.config.local_replica_for(key, remote)]
            assert owner.store.data.latest(key).value == "partition-era", key


class TestFailureHandling:
    def test_membership_on_modulo_placement_fails_loud_at_the_caller(self):
        testbed = build_testbed(Scenario(regions=["VA"], servers_per_cluster=2,
                                         fixed_latency_ms=1.0))
        with pytest.raises(ReproError):
            testbed.membership.scale_out(testbed.config.cluster_names[0])
        with pytest.raises(ReproError):
            testbed.membership.scale_in(testbed.config.cluster_names[0])
        assert testbed.membership.records == []

    def test_join_against_a_crashed_owner_aborts_cleanly(self):
        """A dead handoff peer must not wedge the cluster's rebalancing."""
        testbed = ring_testbed()
        preload(testbed, count=50)
        cluster = testbed.config.clusters[0]
        testbed.servers[cluster.servers[0]].crash()
        record = testbed.membership.scale_out(cluster.name)
        testbed.run(80_000.0)  # past the retry budget
        assert not record.done
        assert record.error is not None and "unreachable" in record.error
        # The zombie joiner never became routable and its name is retired.
        assert record.server not in cluster.servers
        assert record.server in testbed.retired
        # The cluster is free again: a later event proceeds once the peer
        # recovers.
        testbed.servers[cluster.servers[0]].recover()
        retry = testbed.membership.scale_out(cluster.name)
        testbed.run(1_000.0)
        assert retry.done

    def test_straggler_write_during_leave_survives_on_the_successor(self):
        """A write served in the leaver's final moments is not lost."""
        testbed = ring_testbed(servers_per_cluster=3)
        preload(testbed, count=60)
        cluster = testbed.config.clusters[0]
        leaver_name = cluster.servers[-1]  # the default scale-in target
        key = next(k for k in (f"key{i}" for i in range(60))
                   if cluster.owner_for(k) == leaver_name)
        record = testbed.membership.scale_in(cluster.name)
        leaver = testbed.servers[record.server]
        assert record.server == leaver_name

        def straggle():
            # Fired mid-leave (inside the post-flip lame-duck window):
            # install + dirty-mark on the leaver directly, emulating a
            # request that raced the drain.
            from repro.storage.records import Timestamp, Version

            straggler = Version(key=key, value="straggler",
                                timestamp=Timestamp(sequence=10_000,
                                                    client_id=99))
            leaver.store.put(straggler)
            leaver.anti_entropy.mark_dirty(straggler)

        testbed.env.schedule(100.0, straggle)
        testbed.run(3_000.0)
        assert record.done
        owner = testbed.servers[
            testbed.config.local_replica_for(key, cluster.name)]
        assert owner.store.data.latest(key).value == "straggler"
