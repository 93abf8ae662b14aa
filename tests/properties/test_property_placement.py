"""Property test: the placement memo agrees with each cluster's partitioner.

``ClusterConfig.placements`` answers a miss from a residue table while every
cluster places by modulo, and from a per-cluster ``owner_of_hash`` loop once
some cluster uses a ring.  Either way a key's record must be what the
clusters themselves say: one owner per cluster (``cluster.partitioner.owner_for``), the
master ``replicas[key_hash % len(replicas)]`` and, per replica, the others.
Deployments are modulo, ring or mixed, 1–5 clusters of 1–7 servers, checked
before and after every ``add_server`` / ``remove_server``.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster.config import Cluster, ClusterConfig
from repro.cluster.partitioner import _stable_key_hash

KEYS = [f"user{i}" for i in range(400)]


@st.composite
def deployments(draw):
    """A cluster config plus a membership history to replay against it."""
    mode = draw(st.sampled_from(["modulo", "ring", "mixed"]))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=7),
                          min_size=1, max_size=5))
    clusters = []
    for index, size in enumerate(sizes):
        placement = (draw(st.sampled_from(["modulo", "ring"]))
                     if mode == "mixed" else mode)
        clusters.append(Cluster(
            name=f"c{index}", region=f"r{index}", placement=placement,
            servers=[f"c{index}-s{i}" for i in range(size)]))
    events = draw(st.lists(
        st.tuples(st.sampled_from(["add", "remove"]),
                  st.integers(min_value=0, max_value=len(sizes) - 1),
                  st.integers(min_value=0, max_value=6)),
        max_size=4))
    return ClusterConfig(clusters), events


def assert_placements_match_partitioners(config: ClusterConfig) -> None:
    for key in KEYS:
        record = config.placements[key]
        replicas = [cluster.partitioner.owner_for(key) for cluster in config.clusters]
        assert record.replicas == replicas
        assert record.master == replicas[_stable_key_hash(key) % len(replicas)]
        assert record.peers == {replica: [r for r in replicas if r != replica]
                                for replica in replicas}


@settings(max_examples=60, deadline=None)
@given(deployment=deployments())
def test_every_record_is_what_the_partitioners_say(deployment):
    config, events = deployment
    assert_placements_match_partitioners(config)
    for step, (kind, index, slot) in enumerate(events):
        cluster = config.clusters[index]
        if kind == "add":
            config.add_server(cluster.name, f"{cluster.name}-joined{step}")
        elif len(cluster.servers) > 1:
            config.remove_server(cluster.servers[slot % len(cluster.servers)])
        assert_placements_match_partitioners(config)
