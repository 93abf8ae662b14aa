"""The membership coordinator: live join/leave with version handoff.

The coordinator turns a static testbed into an elastic one.  Each
membership change is a small simulated protocol driven as a coroutine
process; a campaign's ``scale-out`` / ``scale-in`` actions
(:mod:`repro.chaos.nemesis`) are the one way to put one on the sim clock:

* **Join (scale-out)** — a new server is built and registered on the
  network, but *not* yet added to the cluster config, so no client routes
  to it.  The joiner computes the pending ring (current ring plus itself)
  and streams every version it will own from the prior owners via
  ``handoff.fetch`` RPCs, paying install cost for the catch-up.  Only
  once every prior owner has been drained does the coordinator flip the
  config epoch — atomically adding the server, clearing the placement
  memo, and re-routing clients — and start the joiner's
  anti-entropy service.  A joiner therefore serves reads only after
  catch-up.  Writes accepted by a prior owner *during* the handoff window
  are repaired deterministically: at the flip, the latest moved version
  of each handed-off key is re-marked dirty on its prior owner, so the
  next anti-entropy round pushes it to the joiner under the new routing.
* **Leave (scale-in / decommission)** — the leaver groups its owned keys
  by their owner on the pending ring (current ring minus itself) and
  offers the version history to each successor via ``handoff.offer``
  RPCs, with a second delta round for versions accepted while the first
  round was in flight.  Then the epoch flips (re-designating key masters
  away from the departed node: ``Placement.master``), anti-entropy
  stops, and the server unregisters from the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ReproError, RequestTimeout
from repro.replication.antientropy import BYTES_PER_VERSION

#: Deadline on one handoff RPC; short so a partitioned peer is retried
#: rather than stalling the whole rebalance behind the default 10 s.
HANDOFF_RPC_TIMEOUT_MS = 1_000.0
#: Back-off before retrying a timed-out handoff RPC.
HANDOFF_RETRY_BACKOFF_MS = 250.0
#: Give up on a handoff peer after this many timed-out attempts (~50
#: simulated seconds).  Handoff is intra-cluster, so region partitions do
#: not explain a silent peer — a crashed server does, and retrying it
#: forever would wedge the cluster's rebalance serialization for the rest
#: of the run.  The rebalance aborts cleanly instead (see RebalanceRecord
#: ``error``).
MAX_HANDOFF_ATTEMPTS = 40
#: Back-off before retrying a membership event that found its cluster busy
#: with another in-flight rebalance.
BUSY_RETRY_MS = 200.0
#: Lame-duck window after a leaver's epoch flip: long enough for requests
#: already on the wire under the old routing (including cross-region master
#: reads) to arrive and be served before the node departs.
LAME_DUCK_MS = 200.0
#: Poll interval while waiting for a draining leaver to go idle.
DRAIN_POLL_MS = 10.0


class HandoffFailed(ReproError):
    """A handoff peer stayed unreachable past the retry budget."""


@dataclass
class RebalanceRecord:
    """Plain-data record of one completed (or in-flight) membership change."""

    kind: str  # "join" | "leave"
    cluster: str
    server: str
    epoch_before: int
    start_ms: float
    end_ms: Optional[float] = None
    epoch_after: Optional[int] = None
    keys_moved: int = 0
    versions_moved: int = 0
    bytes_moved: int = 0
    #: Distinct keys stored in the cluster at handoff time (the denominator
    #: of the moved fraction).
    cluster_keys_total: int = 0
    #: The consistent-hashing ideal for this change (1/n post-join size,
    #: or the leaver's 1/n share pre-leave).
    ideal_fraction: float = 0.0
    #: The keys that changed owner (for "no reads lost in transit" audits).
    moved_keys: Tuple[str, ...] = ()
    #: Why the rebalance aborted (None while in flight or on success).
    error: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.end_ms is not None and self.error is None

    @property
    def duration_ms(self) -> Optional[float]:
        if self.end_ms is None:
            return None
        return self.end_ms - self.start_ms

    @property
    def keys_moved_fraction(self) -> Optional[float]:
        if not self.cluster_keys_total:
            return None
        return self.keys_moved / self.cluster_keys_total

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "cluster": self.cluster,
            "server": self.server,
            "epoch_before": self.epoch_before,
            "epoch_after": self.epoch_after,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "duration_ms": self.duration_ms,
            "keys_moved": self.keys_moved,
            "versions_moved": self.versions_moved,
            "bytes_moved": self.bytes_moved,
            "cluster_keys_total": self.cluster_keys_total,
            "keys_moved_fraction": self.keys_moved_fraction,
            "ideal_fraction": self.ideal_fraction,
            "error": self.error,
        }


class MembershipCoordinator:
    """Drives membership changes against a running testbed."""

    def __init__(self, testbed):
        self.testbed = testbed
        self.records: List[RebalanceRecord] = []
        #: Clusters with a rebalance in flight; a second event on the same
        #: cluster defers until the first completes (single-valued epochs).
        self._busy: Set[str] = set()
        #: Per-cluster stack of servers added by this coordinator, so a
        #: targetless scale-in removes the most recent joiner first.
        self._joined: Dict[str, List[str]] = {}

    # -- entry points --------------------------------------------------------
    def scale_out(self, cluster_name: Optional[str] = None,
                  server_name: Optional[str] = None) -> RebalanceRecord:
        """Join a new server to ``cluster_name`` (default: the first cluster)."""
        config = self.testbed.config
        cluster = config.cluster(cluster_name or config.cluster_names[0])
        self._require_ring(cluster)
        if cluster.name in self._busy:
            self.testbed.env.schedule(BUSY_RETRY_MS, self.scale_out,
                                      cluster.name, server_name)
            return None
        joiner = self.testbed.add_server(cluster.name, server_name)
        record = RebalanceRecord(
            kind="join", cluster=cluster.name, server=joiner.name,
            epoch_before=config.epoch, start_ms=self.testbed.env.now)
        self.records.append(record)
        self._busy.add(cluster.name)
        self.testbed.env.process(self._join_process(cluster, joiner, record))
        return record

    def scale_in(self, cluster_name: Optional[str] = None,
                 server_name: Optional[str] = None) -> Optional[RebalanceRecord]:
        """Decommission a server (default: the cluster's most recent joiner).

        A no-op (returns ``None``) when the cluster is already at its
        single-server minimum — generated campaigns may race a storm's
        leaves ahead of its joins.
        """
        config = self.testbed.config
        cluster = config.cluster(cluster_name or config.cluster_names[0])
        self._require_ring(cluster)
        if cluster.name in self._busy:
            self.testbed.env.schedule(BUSY_RETRY_MS, self.scale_in,
                                      cluster.name, server_name)
            return None
        if len(cluster.servers) <= 1:
            return None
        if server_name is None:
            joined = self._joined.get(cluster.name, [])
            server_name = joined[-1] if joined else cluster.servers[-1]
        if server_name not in cluster.servers:
            raise ReproError(
                f"server {server_name!r} is not in cluster {cluster.name!r}")
        leaver = self.testbed.servers[server_name]
        record = RebalanceRecord(
            kind="leave", cluster=cluster.name, server=server_name,
            epoch_before=config.epoch, start_ms=self.testbed.env.now,
            ideal_fraction=1.0 / len(cluster.servers))
        self.records.append(record)
        self._busy.add(cluster.name)
        self.testbed.env.process(self._leave_process(cluster, leaver, record))
        return record

    @staticmethod
    def _require_ring(cluster) -> None:
        """Fail loud (at the caller, not inside a silent process) when a
        membership event targets a static modulo-placement cluster."""
        if cluster.placement != "ring":
            raise ReproError(
                f"cluster {cluster.name!r} uses static modulo placement; "
                "elastic membership requires placement='ring'")

    # -- RPC with retry -------------------------------------------------------
    def _handoff_rpc(self, src: str, dst: str, kind: str, payload: dict,
                     size_bytes: int = 0):
        """Issue one handoff RPC, retrying through timeouts up to a budget.

        Raises :class:`HandoffFailed` once the budget is exhausted — the
        peer is crashed or unreachable for the long haul, and the caller
        aborts the rebalance instead of wedging the cluster forever.
        """
        env = self.testbed.env
        for _attempt in range(MAX_HANDOFF_ATTEMPTS):
            try:
                reply = yield self.testbed.network.rpc(
                    src, dst, kind, payload, HANDOFF_RPC_TIMEOUT_MS, size_bytes)
                return reply
            except RequestTimeout:
                yield env.timeout(HANDOFF_RETRY_BACKOFF_MS)
        raise HandoffFailed(
            f"handoff peer {dst!r} unreachable after "
            f"{MAX_HANDOFF_ATTEMPTS} {kind!r} attempts")

    # -- join -----------------------------------------------------------------
    def _join_process(self, cluster, joiner, record: RebalanceRecord):
        config = self.testbed.config
        env = self.testbed.env
        joiner_name = joiner.name
        flipped = False
        faults = self.testbed.faults
        window = faults.open(
            "handoff", (cluster.name, joiner_name), record.start_ms,
            f"join {joiner_name} into {cluster.name}")
        try:
            pending = cluster.pending_partitioner(add=joiner_name)
            owned_by_joiner = pending.owner_for

            def should_move(key: str) -> bool:
                return owned_by_joiner(key) == joiner_name

            prior_owners = list(cluster.servers)
            moved_keys: Set[str] = set()
            cluster_keys: Set[str] = set()
            for owner in prior_owners:
                reply = yield from self._handoff_rpc(
                    joiner_name, owner, "handoff.fetch",
                    {"predicate": should_move, "requester": joiner_name})
                versions = reply["versions"]
                cluster_keys.update(reply["all_keys"])
                install_cost = 0.0
                for version in versions:
                    install_cost += joiner.store.put(version)
                    moved_keys.add(version.key)
                record.versions_moved += len(versions)
                record.bytes_moved += BYTES_PER_VERSION * len(versions)
                if install_cost > 0.0:
                    # Catch-up is real work: the joiner pays the install
                    # cost before it may serve reads.
                    yield env.timeout(install_cost)
            # Atomic epoch flip: clients route to the joiner from here on.
            config.add_server(cluster.name, joiner_name)
            flipped = True
            self._joined.setdefault(cluster.name, []).append(joiner_name)
            # Handoff-race repair: a write a prior owner accepted after its
            # fetch scan may already have left the dirty set (pushed to the
            # *old* peer list by an anti-entropy round that beat the flip),
            # so the fetched snapshot cannot repair it.  Re-scan each prior
            # owner's *current* state for moved keys and re-mark the latest
            # versions dirty: the next round routes through the new ring
            # and delivers them to the joiner.
            for owner in prior_owners:
                server = self.testbed.servers.get(owner)
                if server is None or not server.alive:
                    continue
                store = server.store.data
                for key in sorted(store.keys()):
                    if should_move(key):
                        moved_keys.add(key)
                        # Only the joiner is owed: every other replica of
                        # the key already received this version through
                        # normal replication.
                        delivered = [p for p in config.peer_replicas(key, owner)
                                     if p != joiner_name]
                        server.anti_entropy.mark_dirty(store.latest(key),
                                                       delivered=delivered)
            joiner.anti_entropy.start()
            record.keys_moved = len(moved_keys)
            record.moved_keys = tuple(sorted(moved_keys))
            record.cluster_keys_total = len(cluster_keys | moved_keys)
            record.ideal_fraction = 1.0 / len(cluster.servers)
            record.epoch_after = config.epoch
            record.end_ms = env.now
        except Exception as exc:  # surfaced via the record, never swallowed
            record.error = f"{type(exc).__name__}: {exc}"
            if not flipped:
                # Abort cleanly: the zombie joiner never entered the config,
                # so crash it off the network and retire its name.
                joiner.crash()
                self.testbed.retire_server(joiner_name)
        finally:
            faults.close(window, env.now)
            self._busy.discard(cluster.name)

    # -- leave ----------------------------------------------------------------
    def _leave_process(self, cluster, leaver, record: RebalanceRecord):
        config = self.testbed.config
        env = self.testbed.env
        # Snapshot the pre-flip ring: after the epoch flip the leaver is on
        # no ring, so "which keys did it own" must be answered by this.
        ring_before = cluster.partitioner
        offered: Set[tuple] = set()
        moved_keys: Set[str] = set()

        def offer_round():
            """Offer every not-yet-offered version of an owned key."""
            batches: Dict[str, List[object]] = {}
            for key in sorted(leaver.store.data.keys()):
                if ring_before.owner_for(key) != leaver.name:
                    continue
                successor = pending.owner_for(key)
                for version in leaver.store.data.versions(key):
                    token = (key, version.timestamp)
                    if token in offered:
                        continue
                    offered.add(token)
                    batches.setdefault(successor, []).append(version)
                    moved_keys.add(key)
            for successor in sorted(batches):
                versions = batches[successor]
                size_bytes = BYTES_PER_VERSION * len(versions)
                yield from self._handoff_rpc(
                    leaver.name, successor, "handoff.offer",
                    {"versions": versions}, size_bytes)
                record.versions_moved += len(versions)
                record.bytes_moved += size_bytes

        faults = self.testbed.faults
        window = faults.open(
            "handoff", (cluster.name, leaver.name), record.start_ms,
            f"drain {leaver.name} out of {cluster.name}")
        try:
            pending = cluster.pending_partitioner(remove=leaver.name)
            # Two pre-flip rounds: the delta round re-drains versions
            # accepted while the first round's offers were in flight.
            for _round in range(2):
                yield from offer_round()
            record.keys_moved = len(moved_keys)
            record.moved_keys = tuple(sorted(moved_keys))
            record.cluster_keys_total = len({
                key for server_name in cluster.servers
                for key in self.testbed.servers[server_name].store.data.keys()})
            # Epoch flip: the departed node leaves every replica list, and
            # the placement memo re-designates the keys it mastered.
            config.remove_server(leaver.name)
            record.epoch_after = config.epoch
            # Lame-duck: clients route elsewhere from the flip on, but
            # requests already on the wire under the old epoch would vanish
            # into the crash and wedge their callers behind the full RPC
            # deadline.  Serve them out before departing.
            yield env.timeout(LAME_DUCK_MS)
            while leaver.queue_depth or leaver.busy_workers:
                yield env.timeout(DRAIN_POLL_MS)
            # Final delta: writes served during the flip window and the
            # lame-duck drain still belong to the successors.
            yield from offer_round()
            record.keys_moved = len(moved_keys)
            # The leaver's unpushed replication obligations (writes a
            # partition kept from remote replicas) must outlive it: hand
            # each to the key's successor.  The version is installed there
            # first — a straggler write served during the final round's RPC
            # waits is in the dirty set but in no offer batch, and the
            # successor must hold any data it is now obligated to push.
            for version, delivered in leaver.anti_entropy.take_pending():
                successor = self.testbed.servers.get(
                    pending.owner_for(version.key))
                if (successor is not None and successor.alive
                        and successor is not leaver):
                    successor.store.data.install(version)
                    successor.anti_entropy.mark_dirty(version,
                                                      delivered=delivered)
            leaver.anti_entropy.stop()
            leaver.crash()
            self.testbed.retire_server(leaver.name)
            joined = self._joined.get(cluster.name)
            if joined and leaver.name in joined:
                joined.remove(leaver.name)
            record.end_ms = env.now
        except Exception as exc:  # surfaced via the record, never swallowed
            record.error = f"{type(exc).__name__}: {exc}"
            # Pre-flip abort leaves the member fully in place; a post-flip
            # failure leaves the (already departed) server alive as an
            # orphan so no data is destroyed — either way the record says
            # why, and the cluster is free for the next event.
        finally:
            faults.close(window, env.now)
            self._busy.discard(cluster.name)
