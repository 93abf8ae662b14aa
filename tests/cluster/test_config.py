"""Unit tests for cluster configuration and replica placement."""

import pytest

from repro.cluster.config import Cluster, ClusterConfig, build_cluster_config
from repro.cluster.partitioner import HashPartitioner
from repro.errors import ReproError
from repro.membership.ring import ConsistentHashRing


@pytest.fixture
def config():
    return build_cluster_config(["VA", "OR", "IR"], servers_per_cluster=3)


class TestCluster:
    def test_requires_servers(self):
        with pytest.raises(ReproError):
            Cluster(name="empty", region="VA", servers=[])

    def test_owner_is_one_of_the_servers(self):
        cluster = Cluster(name="c", region="VA", servers=["a", "b", "c"])
        assert cluster.owner_for("user1") in {"a", "b", "c"}


class TestClusterConfig:
    def test_requires_clusters(self):
        with pytest.raises(ReproError):
            ClusterConfig([])

    def test_duplicate_cluster_names_rejected(self):
        clusters = [Cluster("c", "VA", ["a"]), Cluster("c", "OR", ["b"])]
        with pytest.raises(ReproError):
            ClusterConfig(clusters)

    def test_server_in_two_clusters_rejected(self):
        clusters = [Cluster("c1", "VA", ["shared"]), Cluster("c2", "OR", ["shared"])]
        with pytest.raises(ReproError):
            ClusterConfig(clusters)

    def test_one_replica_per_cluster(self, config):
        replicas = config.replicas_for("user42")
        assert len(replicas) == 3
        clusters = {config.cluster_of_server(r) for r in replicas}
        assert len(clusters) == 3

    def test_replication_factor(self, config):
        assert config.replication_factor() == 3

    def test_local_replica_is_in_cluster(self, config):
        name = config.cluster_names[0]
        replica = config.local_replica_for("user42", name)
        assert config.cluster_of_server(replica) == name

    def test_master_is_a_replica(self, config):
        for key in (f"user{i}" for i in range(30)):
            assert config.master_for(key) in config.replicas_for(key)

    def test_masters_spread_across_clusters(self, config):
        masters = {config.cluster_of_server(config.master_for(f"user{i}"))
                   for i in range(200)}
        assert len(masters) > 1  # not all keys mastered in one datacenter

    def test_peer_replicas_excludes_self(self, config):
        key = "user7"
        replicas = config.replicas_for(key)
        peers = config.peer_replicas(key, replicas[0])
        assert replicas[0] not in peers
        assert len(peers) == 2

    def test_unknown_lookups_rejected(self, config):
        with pytest.raises(ReproError):
            config.cluster("nope")
        with pytest.raises(ReproError):
            config.cluster_of_server("nope")

    def test_build_cluster_config_validation(self):
        with pytest.raises(ReproError):
            build_cluster_config(["VA"], servers_per_cluster=0)

    def test_all_servers_enumeration(self, config):
        assert len(config.all_servers) == 9
        assert len(set(config.all_servers)) == 9


class TestPlacementCompat:
    """Static scenarios must keep the paper's exact modulo placement."""

    def test_default_placement_is_modulo(self, config):
        for cluster in config.clusters:
            assert cluster.placement == "modulo"

    def test_modulo_placement_is_byte_identical_to_the_hash_rule(self, config):
        # Pins the historical routing rule so the ring refactor can never
        # shift static figure sweeps: owner == servers[sha1(key) % n].
        from repro.cluster.partitioner import _stable_key_hash

        for cluster in config.clusters:
            for key in (f"user{i}" for i in range(100)):
                expected = cluster.servers[
                    _stable_key_hash(key) % len(cluster.servers)]
                assert cluster.owner_for(key) == expected

    def test_ring_placement_is_selectable(self):
        config = build_cluster_config(["VA", "OR"], 3, placement="ring")
        for cluster in config.clusters:
            assert cluster.placement == "ring"
            for key in (f"user{i}" for i in range(50)):
                assert cluster.owner_for(key) in cluster.servers

    def test_unknown_placement_rejected(self):
        with pytest.raises(ReproError):
            Cluster(name="c", region="VA", servers=["a"], placement="vibes")


class TestInvalidation:
    """Satellite: placement memos must flush whenever topology changes."""

    def test_two_sequential_configs_in_one_process_route_correctly(self):
        # Placement memos are per config — two configs with different
        # server lists must never cross-route.
        keys = [f"user{i}" for i in range(200)]
        for servers_per_cluster in (2, 3, 5):
            config = build_cluster_config(["VA", "OR"], servers_per_cluster)
            for key in keys:
                for cluster in config.clusters:
                    assert cluster.owner_for(key) in cluster.servers
                assert config.master_for(key) in config.all_servers

    def test_add_server_invalidates_every_cache(self):
        config = build_cluster_config(["VA", "OR"], 2, placement="ring")
        keys = [f"user{i}" for i in range(300)]
        # Warm every memo path.
        for key in keys:
            config.replicas_for(key)
            config.master_for(key)
            config.peer_replicas(key, config.all_servers[0])
        before = {key: config.cluster("cluster0-VA").owner_for(key)
                  for key in keys}
        epoch = config.epoch
        config.add_server("cluster0-VA", "cluster0-VA-s9")
        assert config.epoch > epoch
        moved = [key for key in keys
                 if config.cluster("cluster0-VA").owner_for(key) != before[key]]
        assert moved, "the new server took no load — caches were stale"
        for key in moved:
            assert config.cluster("cluster0-VA").owner_for(key) == "cluster0-VA-s9"
            assert "cluster0-VA-s9" in config.replicas_for(key)
            assert config.master_for(key) in config.replicas_for(key)
        assert config.cluster_of_server("cluster0-VA-s9") == "cluster0-VA"

    def test_remove_server_invalidates_every_cache(self):
        config = build_cluster_config(["VA", "OR"], 3, placement="ring")
        keys = [f"user{i}" for i in range(300)]
        for key in keys:
            config.replicas_for(key)
            config.master_for(key)
        victim = config.cluster("cluster0-VA").servers[0]
        config.remove_server(victim)
        for key in keys:
            assert victim not in config.replicas_for(key)
            assert config.master_for(key) != victim
        with pytest.raises(ReproError):
            config.cluster_of_server(victim)

    def test_explicit_invalidate_bumps_epoch_and_clears_memos(self):
        config = build_cluster_config(["VA", "OR"], 2, placement="ring")
        home, other = config.clusters
        keys = [f"user{i}" for i in range(300)]
        for key in keys:  # warm every placement answer
            config.replicas_for(key)
            config.master_for(key)
            config.local_replica_for(key, home.name)
            config.peer_replicas(key, config.all_servers[0])
        # Swap a server behind the config's back: only invalidate() tells it.
        old, kept = home.servers
        home.partitioner = home.pending_partitioner(add="swapped").without_owner(old)
        epoch = config.epoch
        config.invalidate()
        assert config.epoch == epoch + 1
        ring = ConsistentHashRing([kept, "swapped"], home.virtual_nodes)
        for key in keys:
            replicas = [ring.owner_for(key), other.owner_for(key)]
            assert config.replicas_for(key) == replicas
            assert config.local_replica_for(key, home.name) == replicas[0]
            assert config.master_for(key) == replicas[
                HashPartitioner.key_hash(key) % len(replicas)]
            for replica in replicas:
                assert config.peer_replicas(key, replica) == [
                    r for r in replicas if r != replica]
        assert "swapped" in {config.local_replica_for(k, home.name) for k in keys}

    def test_duplicate_and_last_server_guards(self):
        config = build_cluster_config(["VA"], 1, placement="ring")
        server = config.all_servers[0]
        with pytest.raises(ReproError):
            config.add_server("cluster0-VA", server)
        with pytest.raises(ReproError):
            config.remove_server(server)


class TestMasterRedesignation:
    """Satellite: what happens to a key's master when its node goes away.

    Mastership is a placement fact: a *crash* leaves the master designated
    (and the key explicitly unavailable to master-routed clients) until the
    node recovers; only a *membership* change re-designates, deterministic
    from the key hash over the surviving replicas.
    """

    def test_departed_master_is_redesignated(self):
        config = build_cluster_config(["VA", "OR"], 3, placement="ring")
        victim = config.cluster("cluster0-VA").servers[0]
        mastered = [key for key in (f"user{i}" for i in range(300))
                    if config.master_for(key) == victim]
        assert mastered, "no keys mastered on the victim — widen the sample"
        config.remove_server(victim)
        for key in mastered:
            new_master = config.master_for(key)
            assert new_master != victim
            assert new_master in config.replicas_for(key)

    def test_all_clients_agree_on_the_new_master(self):
        # Re-designation needs no coordination: the same deterministic rule
        # over the same surviving replica list yields the same answer.
        a = build_cluster_config(["VA", "OR"], 3, placement="ring")
        b = build_cluster_config(["VA", "OR"], 3, placement="ring")
        victim = a.cluster("cluster0-VA").servers[1]
        a.remove_server(victim)
        b.remove_server(victim)
        for key in (f"user{i}" for i in range(200)):
            assert a.master_for(key) == b.master_for(key)

    def test_crash_does_not_redesignate(self, execute):
        # A crashed-but-configured master keeps the key unavailable: the
        # liveness fault is the *network's* problem, not placement's.
        from repro.hat.testbed import Scenario, build_testbed

        testbed = build_testbed(Scenario(regions=["VA", "OR"],
                                         servers_per_cluster=2,
                                         fixed_latency_ms=1.0))
        config = testbed.config
        key = "user42"
        master = config.master_for(key)
        testbed.servers[master].crash()
        assert config.master_for(key) == master  # still designated
        from repro.hat.transaction import Operation, Transaction

        client = testbed.make_client(
            "master", home_cluster=config.cluster_of_server(master),
            rpc_timeout_ms=200.0)
        result = execute(testbed, client,
                         Transaction([Operation.write(key, 1)]))
        assert not result.committed  # explicit unavailability
