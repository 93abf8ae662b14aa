"""Unit tests for the client node (routing, timestamps, stickiness)."""

import pytest

from repro.cluster.client import ClientNode
from repro.cluster.config import build_cluster_config
from repro.errors import ReproError
from repro.net.latency import FixedLatencyModel
from repro.net.network import Network
from repro.net.partitions import PartitionManager
from repro.net.topology import Topology
from repro.sim import Environment, RandomStreams


@pytest.fixture
def rig():
    env = Environment()
    config = build_cluster_config(["VA", "OR"], servers_per_cluster=2)
    topology = Topology()
    for cluster in config.clusters:
        for server in cluster.servers:
            topology.add_site(server, region=cluster.region)
    topology.add_site("client-0", region="VA")
    network = Network(env, topology, FixedLatencyModel(1.0),
                      streams=RandomStreams(0), partitions=PartitionManager())
    node = ClientNode(env, network, config, "client-0",
                      home_cluster=config.cluster_names[0])
    return env, network, config, node


class TestClientNode:
    def test_unknown_home_cluster_rejected(self, rig):
        env, network, config, _node = rig
        with pytest.raises(ReproError):
            ClientNode(env, network, config, "client-x", home_cluster="nope")

    def test_timestamps_are_unique_and_increasing(self, rig):
        _env, _network, _config, node = rig
        stamps = [node.next_timestamp() for _ in range(10)]
        assert len(set(stamps)) == 10
        assert stamps == sorted(stamps)
        assert all(ts.client_id == node.client_id for ts in stamps)

    def test_sticky_replica_is_in_home_cluster(self, rig):
        _env, _network, config, node = rig
        home = config.cluster_names[0]
        index = config.cluster_index(home)
        for key in (f"user{i}" for i in range(20)):
            replica = config.placements[key].replicas[index]
            assert config.cluster_of_server(replica) == home

    def test_all_replicas_one_per_cluster(self, rig):
        _env, _network, config, _node = rig
        replicas = config.replicas_for("user1")
        assert len(replicas) == 2
        assert {config.cluster_of_server(r) for r in replicas} == set(config.cluster_names)

    def test_master_is_a_replica(self, rig):
        _env, _network, config, _node = rig
        assert config.placements["user1"].master in config.replicas_for("user1")

    def test_reachable_replicas_respects_partitions(self, rig):
        env, network, config, node = rig
        key = "user1"
        all_replicas = config.replicas_for(key)
        remote = [r for r in all_replicas
                  if config.cluster_of_server(r) != node.home_cluster]
        local_sites = [node.name] + [
            r for r in all_replicas if config.cluster_of_server(r) == node.home_cluster
        ]
        network.partitions.partition_by(
            {**dict.fromkeys(local_sites, 0), **dict.fromkeys(remote, 1)}.get)
        reachable = network.partitions.reachable_from(node.name, all_replicas)
        assert set(reachable) == set(local_sites) - {node.name}

    def test_distinct_client_ids(self, rig):
        env, network, config, node = rig
        topology = network.topology
        topology.add_site("client-1", region="VA")
        other = ClientNode(env, network, config, "client-1",
                           home_cluster=config.cluster_names[0])
        assert other.client_id != node.client_id
