"""Cluster and replica-placement configuration.

A :class:`Cluster` is one fully replicated copy of the database, placed in one
region (datacenter) and hash-partitioned across its servers.  The
:class:`ClusterConfig` aggregates all clusters and answers the placement
questions the protocols need:

* ``replicas_for(key)`` — one server per cluster (the partition owner),
* ``local_replica_for(key, cluster)`` — the owner within a specific cluster,
* ``master_for(key)`` — the designated master replica used by the non-HAT
  ``master``, locking, and quorum protocols (chosen deterministically from
  the key hash, as in the paper's "randomly designated master per key").

Placement comes in two modes, selected per cluster:

* ``"modulo"`` (the default) — the paper's static ``hash(key) % n`` over a
  fixed server list, byte-identical to the historical partitioner so the
  static figure sweeps never shift;
* ``"ring"`` — a consistent-hash ring with virtual nodes
  (:mod:`repro.membership.ring`), the mode elastic scenarios use so that a
  join moves only ``~1/(n+1)`` of the key space.

Every answer above reads one memo, key → :class:`Placement` (replicas,
master, each replica's peers).  A miss hashes the key once.  While every
cluster places by modulo, ``key_hash % lcm(clusters, *servers per cluster)``
fixes every owner and the master: a table of residues holds the records.
Otherwise (a ring owner is a token bisect) each cluster's partitioner names
the owner of that hash.  Keys placed alike share one record.

Membership is *mutable*: :meth:`ClusterConfig.add_server` and
:meth:`ClusterConfig.remove_server` change a cluster's server list
mid-process.  Each mutation clears the memo and the residue table and bumps
:attr:`ClusterConfig.epoch` — callers holding a placement list must treat an
epoch change as a routing flush.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha1
from math import lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.cluster.partitioner import HashPartitioner, Partitioner
from repro.errors import ReproError
from repro.membership.ring import DEFAULT_VIRTUAL_NODES, ConsistentHashRing

#: The placement modes a cluster accepts.
PLACEMENT_MODES = ("modulo", "ring")


@dataclass
class Cluster:
    """One fully replicated copy of the data, pinned to a region."""

    name: str
    region: str
    servers: List[str] = field(default_factory=list)
    #: ``"modulo"`` (static, byte-identical to the historical partitioner)
    #: or ``"ring"`` (consistent hashing, required for elastic membership).
    placement: str = "modulo"
    virtual_nodes: int = DEFAULT_VIRTUAL_NODES

    def __post_init__(self) -> None:
        if not self.servers:
            raise ReproError(f"cluster {self.name!r} has no servers")
        if self.placement not in PLACEMENT_MODES:
            raise ReproError(
                f"cluster {self.name!r}: unknown placement {self.placement!r} "
                f"(expected one of {PLACEMENT_MODES})")
        self._rebuild_partitioner()

    def _rebuild_partitioner(self) -> None:
        self.partitioner: Partitioner = (
            ConsistentHashRing(self.servers, self.virtual_nodes)
            if self.placement == "ring" else HashPartitioner(self.servers))

    def owner_for(self, key: str) -> str:
        """The server in this cluster that owns ``key``'s partition."""
        return self.partitioner.owner_for(key)

    def pending_partitioner(self, add: Optional[str] = None,
                            remove: Optional[str] = None):
        """The partitioner this cluster *will* use after a membership change.

        The membership coordinator routes handoff against the pending
        placement while clients still route against the current one; the
        switch happens atomically in :meth:`add_server`/:meth:`remove_server`.
        Only ring clusters can answer this — modulo placement has no
        minimal-disruption story, which is the whole point of the ring.
        """
        if self.placement != "ring":
            raise ReproError(
                f"cluster {self.name!r} uses static modulo placement; "
                "elastic membership requires placement='ring'")
        if (add is None) == (remove is None):
            raise ReproError("specify exactly one of add= or remove=")
        if add is not None:
            return self.partitioner.with_owner(add)
        return self.partitioner.without_owner(remove)


class Placement(NamedTuple):
    """Where a key lives: its replicas (one per cluster, in cluster order),
    its master, and replica -> the other replicas."""

    replicas: List[str]
    master: str
    peers: Dict[str, List[str]]


class _Placements(dict):
    """The placement memo: key -> its shared :class:`Placement` record.

    A record depends only on the owners and the master slot
    (``key_hash % clusters``), so ``records`` outlives a membership change.
    ``residues`` maps each ``key_hash % period`` seen to its record; ``period``
    is 0 unless every cluster places by modulo.  Lists and records are
    shared — callers must not mutate them.
    """

    __slots__ = ("clusters", "records", "residues", "period")

    def __init__(self, clusters: List[Cluster]):
        super().__init__()
        self.clusters = clusters
        self.records: Dict[Tuple[str, ...], Tuple[Placement, ...]] = {}
        self.reset()

    def reset(self) -> None:
        """Forget every key and residue; size ``period`` to the servers."""
        self.clear()
        self.residues: Dict[int, Placement] = {}
        clusters = self.clusters
        self.period = (lcm(len(clusters), *[len(c.servers) for c in clusters])
                       if all(c.placement == "modulo" for c in clusters) else 0)

    def __missing__(self, key: str) -> Placement:
        # Partitioner.key_hash, inline: one frame fewer per miss.
        key_hash = int.from_bytes(sha1(key.encode()).digest()[:8], "big")
        period = self.period
        if period:
            record = self.residues.get(key_hash % period)
            if record is not None:
                self[key] = record
                return record
        owners = []  # a loop: a comprehension is one more frame on 3.11
        for cluster in self.clusters:
            owners.append(cluster.partitioner.owner_of_hash(key_hash))
        owners = tuple(owners)
        shared = self.records.get(owners)
        if shared is None:
            replicas = list(owners)
            peers = {replica: [r for r in replicas if r != replica]
                     for replica in replicas}
            shared = self.records[owners] = tuple(
                [Placement(replicas, master, peers) for master in replicas])
        record = self[key] = shared[key_hash % len(shared)]
        if period:
            self.residues[key_hash % period] = record
        return record


class ClusterConfig:
    """All clusters plus replica-placement queries."""

    def __init__(self, clusters: Sequence[Cluster]):
        if not clusters:
            raise ReproError("ClusterConfig requires at least one cluster")
        names = [c.name for c in clusters]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate cluster names: {names}")
        self.clusters: List[Cluster] = list(clusters)
        self._index: Dict[str, int] = {c.name: i for i, c in enumerate(clusters)}
        self._server_to_cluster: Dict[str, str] = {}
        #: Membership epoch: bumped by every invalidation, so components
        #: that memoize placement externally can tag entries with it.
        self.epoch = 0
        #: The placement memo, key -> :class:`Placement`: indexing it
        #: places a key on first use.  Read-only to callers.
        self.placements = _Placements(self.clusters)
        for cluster in clusters:
            for server in cluster.servers:
                if server in self._server_to_cluster:
                    raise ReproError(f"server {server!r} appears in two clusters")
                self._server_to_cluster[server] = cluster.name

    # -- lookup ----------------------------------------------------------------
    def cluster_index(self, name: str) -> int:
        """The position of cluster ``name`` in every replica list."""
        try:
            return self._index[name]
        except KeyError:
            raise ReproError(f"unknown cluster {name!r}") from None

    def cluster(self, name: str) -> Cluster:
        return self.clusters[self.cluster_index(name)]

    def cluster_of_server(self, server: str) -> str:
        try:
            return self._server_to_cluster[server]
        except KeyError:
            raise ReproError(f"server {server!r} is not part of any cluster") from None

    @property
    def all_servers(self) -> List[str]:
        return [s for c in self.clusters for s in c.servers]

    @property
    def cluster_names(self) -> List[str]:
        return [c.name for c in self.clusters]

    # -- membership -----------------------------------------------------------
    def invalidate(self) -> None:
        """Flush the placement memo and bump the epoch.

        Must be called (and is, by :meth:`add_server`/:meth:`remove_server`)
        whenever any cluster's server list changes: the memo holds
        pre-change routing.
        """
        self.epoch += 1
        self.placements.reset()

    def add_server(self, cluster_name: str, server: str) -> None:
        """Add ``server`` to a cluster and flush the placement memo."""
        if server in self._server_to_cluster:
            raise ReproError(f"server {server!r} appears in two clusters")
        cluster = self.cluster(cluster_name)
        cluster.servers.append(server)
        cluster._rebuild_partitioner()
        self._server_to_cluster[server] = cluster_name
        self.invalidate()

    def remove_server(self, server: str) -> None:
        """Remove ``server`` from its cluster and flush the placement memo."""
        cluster = self.cluster(self.cluster_of_server(server))
        if len(cluster.servers) == 1:
            raise ReproError(
                f"cannot remove the last server of cluster {cluster.name!r}")
        cluster.servers.remove(server)
        cluster._rebuild_partitioner()
        del self._server_to_cluster[server]
        self.invalidate()

    # -- placement -----------------------------------------------------------------
    def replicas_for(self, key: str) -> List[str]:
        """One replica per cluster: the key's partition owner in each."""
        return self.placements[key].replicas

    def local_replica_for(self, key: str, cluster_name: str) -> str:
        """The replica of ``key`` inside ``cluster_name``."""
        return self.placements[key].replicas[self.cluster_index(cluster_name)]

    def master_for(self, key: str) -> str:
        """The designated master replica for ``key`` (non-HAT protocols):
        ``replicas[key_hash(key) % len(replicas)]``, one of the key's
        replicas, so all clients agree without coordination.

        Mastership is a placement fact, not a liveness fact: while the
        master's node is crashed or partitioned away, the key stays
        unavailable to master-routed clients until it recovers (the paper's
        Table 3 unavailability, and what the availability experiments
        measure).  Only a membership change (:meth:`remove_server` — a
        decommission or ring departure) re-designates: the epoch flip drops
        the departed node from the key's replicas and the same rule elects a
        new master from the survivors, again with no coordination.
        """
        return self.placements[key].master

    def peer_replicas(self, key: str, server: str) -> List[str]:
        """The other replicas of ``key``, excluding ``server`` itself."""
        record = self.placements[key]
        return record.peers.get(server, record.replicas)

    def replication_factor(self) -> int:
        """Number of copies of each key (== number of clusters)."""
        return len(self.clusters)


def build_cluster_config(
    regions: Sequence[str],
    servers_per_cluster: int,
    placement: str = "modulo",
    virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
) -> ClusterConfig:
    """Convenience constructor: one cluster per region, N servers each.

    Server names follow ``"<cluster>-s<i>"`` and match the site names the
    cluster builder registers in the topology.
    """
    if servers_per_cluster < 1:
        raise ReproError("servers_per_cluster must be >= 1")
    clusters = []
    for index, region in enumerate(regions):
        name = f"cluster{index}-{region}"
        servers = [f"{name}-s{i}" for i in range(servers_per_cluster)]
        clusters.append(Cluster(name=name, region=region, servers=servers,
                                placement=placement,
                                virtual_nodes=virtual_nodes))
    return ClusterConfig(clusters)
