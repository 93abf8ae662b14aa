"""All-to-all anti-entropy between the replicas of each key.

The paper's eventual/RC/MAV configurations propagate writes between clusters
with "standard all-to-all anti-entropy between replicas" (Section 6.3) — the
epidemic approach of Demers et al.  Each server periodically pushes the
versions clients wrote to it since the last round to the peer replicas of
the affected keys (the owners of the same partition in the other clusters).
A version that arrived by ``ae.push`` is not pushed on, MAV writes included:
the origin pushes each write once to each remote replica (a leaver's
successor takes over the pushes the leaver still owed).

Lifecycle: services started with the same ``(interval_ms, start phase)``
share one :class:`AntiEntropyClock` tick per grid instant, which runs a
round on each of them that has work, in start order.  The tick is armed iff
some started, live service has dirty or parked entries or owed MAV acks: a
mark, a start or a recovery arms it for the next grid instant, and a tick
that leaves every queue empty does not re-arm.  An idle deployment schedules
no event at all.  MAV acknowledgements travel on this tick and nowhere else:
the acks owed to a server the round pushes to ride that ``ae.push`` (applied
after its versions); every other reachable server gets one ``mav.notify``
with all the acks owed to it, on the tick or, coupled, in the queued round.
Like a parked version an ack owed to an unreachable server — or by a crashed
one, until the tick its recovery wakes — stays owed.

The cost matters for reproducing Figure 3C and Figure 6: with five clusters,
"every YCSB put operation resulted in four put operations on remote replicas
and, accordingly, the cost of anti-entropy increased" — four pushed versions
per write here too — which is why MAV's relative throughput drops as
clusters are added.

A push round examines only entries whose outcome can have changed.  Fresh
marks wait in ``_dirty``; an entry that was examined and is still owed a
version is *parked*.  The parked-set invariant: every parked entry was
examined under ``_parked_stamp`` — the routing stamp ``(ClusterConfig.epoch,
PartitionManager.generation)`` — and is owed only to peers unreachable under
it.  Placement and reachability are pure functions of the stamp, so a parked
entry cannot be pushed anywhere until the stamp moves (partition start or
heal, isolate/rejoin, membership flip); then all of them re-enter the queue,
oldest first.  A partition's backlog therefore costs O(marks + requeues),
not O(backlog x rounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.cluster.config import ClusterConfig
from repro.errors import ReproError
from repro.sim import Environment
from repro.storage.records import Version

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.hat.server import HATServer


#: Default per-round cap when anti-entropy is capacity-coupled.  At the
#: default 10 ms interval and send cost, one round's push work occupies a
#: worker for well under half the interval, so catch-up never monopolizes
#: the server it runs on; a heal backlog drains over several rounds
#: instead of landing as one burst.
DEFAULT_COUPLED_MAX_PER_ROUND = 64


@dataclass
class AntiEntropyConfig:
    """Tunables for the anti-entropy service."""

    #: How often each server pushes its dirty set (milliseconds).
    interval_ms: float = 10.0
    #: Maximum number of versions pushed to one peer per round.
    batch_size: int = 256
    #: Approximate wire size per pushed version (1 KB value + metadata).
    bytes_per_version: int = 1100
    #: Cap on dirty entries *processed* per round (None = all; under
    #: capacity coupling :data:`DEFAULT_COUPLED_MAX_PER_ROUND`).  Bounding it
    #: spreads a post-partition or post-rebalance catch-up backlog over
    #: several rounds instead of one giant install burst at the receivers.
    max_versions_per_round: Optional[int] = None
    #: Couple replication to service capacity: each push round runs as a
    #: queued request on the *sending* server (occupying a worker for
    #: :attr:`send_cost_ms_per_version` per version), so a healed
    #: partition's catch-up backlog steals cycles from foreground
    #: requests — on the sender as well as the receivers, whose installs
    #: already flow through their queues.  Off by default: an uncoupled
    #: run executes the exact pre-existing event sequence.
    capacity_coupled: bool = False
    #: Worker time to read, serialize, and stream one catch-up version
    #: when coupled (the same storage path a foreground write exercises).
    send_cost_ms_per_version: float = 0.05

    def __post_init__(self) -> None:
        if self.interval_ms <= 0:
            raise ReproError(
                f"AntiEntropyConfig.interval_ms must be > 0, got {self.interval_ms}")

    def effective_max_per_round(self) -> Optional[int]:
        """The per-round cap enforced: an explicit one always wins; coupled
        rounds are never unbounded, or one heal burst would wedge every
        worker at once — the failure coupling exists to expose gradually."""
        if self.max_versions_per_round is None and self.capacity_coupled:
            return DEFAULT_COUPLED_MAX_PER_ROUND
        return self.max_versions_per_round


@dataclass(slots=True)
class AntiEntropyStats:
    rounds: int = 0
    versions_pushed: int = 0
    messages: int = 0
    #: Superseded same-key versions dropped from a round instead of pushed.
    versions_coalesced: int = 0
    #: Entries a round examined: once per mark, once more per requeue.
    entries_examined: int = 0
    #: Parked entries put back in the queue because the routing stamp moved.
    requeues: int = 0


class _Grid:
    """The one tick the services started in one ``(interval_ms, phase)`` share."""

    def __init__(self, env: Environment, interval_ms: float):
        self.env = env
        self.interval_ms = interval_ms
        #: Instant ``k`` is ``origin + k * interval_ms``; ``_k`` is the newest
        #: one a tick was scheduled for.
        self.origin = env.now
        self._k = 0
        self.armed = False
        #: In start order — the order the per-server timers used to fire in.
        self.services: List["AntiEntropyService"] = []

    def arm(self) -> None:
        """Schedule the tick for the next instant not yet run (once)."""
        if self.armed:
            return
        self.armed = True
        now = self.env.now
        k = max(self._k + 1, int((now - self.origin) / self.interval_ms))
        if self.origin + k * self.interval_ms < now:
            k += 1
        self._k = k
        self.env.schedule_at(self.origin + k * self.interval_ms, self._tick)

    def _tick(self) -> None:
        self.armed = False
        again = False
        for service in self.services:
            if service.has_work():
                service._round()
                again = again or service.has_work()
        if again:
            self.arm()


class AntiEntropyClock:
    """A deployment's anti-entropy timer: one :class:`_Grid` per start phase."""

    def __init__(self, env: Environment):
        self.env = env
        self._grids: Dict[tuple, _Grid] = {}

    def join(self, service: "AntiEntropyService") -> _Grid:
        """Register ``service``: its first round is one interval from now."""
        interval_ms = service.settings.interval_ms
        grid = self._grids.setdefault((interval_ms, self.env.now % interval_ms),
                                      _Grid(self.env, interval_ms))
        grid.services.append(service)
        return grid


class AntiEntropyService:
    """Periodic push replication for one server."""

    def __init__(
        self,
        env: Environment,
        server: "HATServer",
        config: ClusterConfig,
        settings: AntiEntropyConfig = None,
        clock: Optional[AntiEntropyClock] = None,
    ):
        self.env = env
        self.server = server
        self.config = config
        self.settings = settings or AntiEntropyConfig()
        self.clock = clock or AntiEntropyClock(env)
        self.stats = AntiEntropyStats()
        #: Marked versions not yet examined by a push round, in arrival
        #: order, as ``(version, delivered_peers)``: ``None`` when no peer has
        #: it yet, else the peers that already got it (not pushed to again).
        #: The peers owed come from the live config when the entry is
        #: examined, so a membership change re-targets a deferred push.
        self._dirty: List[tuple] = []
        #: Examined entries still owed a push, in the order they were
        #: parked (the dict key is only a unique slot number).  Invariant:
        #: each was examined under :attr:`_parked_stamp` and is owed only to
        #: peers unreachable under it.
        self._parked: Dict[int, tuple] = {}
        #: key -> slots in ``_parked`` of its sibling-free entries.  They
        #: all hold one ``Version`` object: coalescing keeps a key's newest.
        self._parked_plain: Dict[str, List[int]] = {}
        self._parked_stamp: Optional[tuple] = None
        self._next_slot = 0
        #: The shared tick this service is registered with (None = stopped).
        self._grid: Optional[_Grid] = None
        # Both sinks are installed on the network before servers are built.
        network = server.network
        self._tracer = network.tracer
        metrics, node, stats = network.metrics, server.name, self.stats
        #: The ``ae_backlog_versions`` series (None without a registry); the
        #: two counters are read from :attr:`stats` when the registry exports.
        self._backlog = None
        if metrics is not None:
            self._backlog = metrics.histogram("ae_backlog_versions", node=node)
            metrics.collect_counter("ae_rounds_total",
                                    lambda: stats.rounds, node=node)
            metrics.collect_counter("ae_versions_pushed_total",
                                    lambda: stats.versions_pushed, node=node)

    # -- dirty tracking ---------------------------------------------------------
    def mark_dirty(self, version: Version, delivered=None) -> None:
        """Record a locally accepted version for the next push round.

        ``delivered`` (optional) names peers that already hold the version,
        so a targeted repair (e.g. the membership coordinator owing only a
        fresh joiner) does not re-broadcast to every replica.
        """
        self._dirty.append((version, tuple(delivered) if delivered else None))
        grid = self._grid
        if grid is not None and not grid.armed:  # once per interval, not per mark
            self.wake()

    def take_pending(self) -> List[tuple]:
        """Remove and return the undelivered entries (decommission handoff).

        A leaving server's unpushed obligations must outlive it: the
        membership coordinator drains these and re-marks them on the keys'
        successors before the leaver departs.
        """
        pending, self._dirty = self._unpark() + self._dirty, []
        return pending

    def _unpark(self) -> List[tuple]:
        """Empty the parked set; returns its entries, oldest first."""
        entries = list(self._parked.values())
        self._parked.clear()
        self._parked_plain.clear()
        return entries

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Begin push rounds, one interval from now (no-op when started)."""
        if self._grid is None:
            self._grid = self.clock.join(self)
            self.wake()

    def stop(self) -> None:
        """Leave the tick; acks owed to reachable servers leave first."""
        if self._grid is not None:
            self.server.send_owed_acks()
            self._grid.services.remove(self)
            self._grid = None

    def has_work(self) -> bool:
        return (bool(self._dirty or self._parked or self.server.mav.owed)
                and self.server.alive)

    def wake(self) -> None:
        """Arm the tick if this started, live service has entries queued."""
        if self._grid is not None and self.has_work():
            self._grid.arm()

    # -- push rounds ------------------------------------------------------------
    def _round(self) -> None:
        if not self._dirty and not self._parked:
            self.server.send_owed_acks()  # only acks were owed
            return
        if self.settings.capacity_coupled:
            # Route the round through the server's own request queue: the
            # push happens when a worker picks it up and its cost occupies
            # that worker, so catch-up competes with foreground requests
            # for capacity.
            self.server.network.send(self.server.name, self.server.name,
                                     "ae.round", None)
        else:
            self.run_round()

    def run_round(self) -> int:
        """Execute one push round; returns the number of versions pushed.

        The server's ``ae.round`` handler runs coupled rounds through here;
        one queued behind a backlog may find the dirty set already drained
        by an earlier round and costs only the request overhead.
        """
        pushed = self._push_dirty()
        if self._backlog is not None and not self._dirty and not self._parked:
            # No idle round follows to record the drained gauge, so a round
            # that leaves nothing queued closes the series with a zero: a
            # window without a sample means the service was idle.
            self._backlog.observe(self.env.now, 0.0)
        return pushed

    def _coalesce(self, dirty: List[tuple]) -> List[tuple]:
        """Drop versions that a later version of the same key supersedes.

        Under last-writer-wins every *visible* read on the peer resolves to
        the newest version, so a superseded one would only be archived there;
        the coalesced peer's version *history* has gaps, as with real
        anti-entropy protocols that exchange only latest versions.  MAV
        writes are exempt: every replica must see each one so its
        transaction can collect the acks that make it stable (Appendix B).
        ``dirty`` also competes with the parked set, key by key: a newer
        version evicts the key's parked entries, an older-or-equal one is
        dropped — what coalescing the two lists together would do.
        """
        newest: Dict[str, Version] = {}
        for version, _owed in dirty:
            if version.siblings:
                continue
            current = newest.get(version.key)
            if current is None:
                # A parked version of the key is older in arrival order
                # than any fresh one, so it is the one to beat.
                slots = self._parked_plain.get(version.key)
                current = newest[version.key] = (
                    self._parked[slots[0]][0] if slots else version)
            if (current is not version
                    and version.timestamp > current.timestamp):
                newest[version.key] = version
        kept: List[tuple] = []
        coalesced = 0
        for entry in dirty:
            version = entry[0]
            if not version.siblings and newest[version.key] is not version:
                coalesced += 1
                continue
            kept.append(entry)
        if self._parked_plain:
            for key, version in newest.items():
                slots = self._parked_plain.get(key)
                if slots and self._parked[slots[0]][0] is not version:
                    coalesced += len(slots)
                    for slot in self._parked_plain.pop(key):
                        del self._parked[slot]
        if coalesced:
            self.stats.versions_coalesced += coalesced
        return kept

    def _push_dirty(self) -> int:
        if self._backlog is not None:
            # Backlog is sampled by every round that runs, so the windowed
            # series shows partition-era growth and post-heal drain.
            self._backlog.observe(self.env.now,
                                  len(self._dirty) + len(self._parked))
        if not self._dirty and not self._parked:
            self.server.send_owed_acks()
            return 0
        self.stats.rounds += 1
        partitions = self.server.network.partitions
        stamp = (self.config.epoch, partitions.generation)
        if stamp != self._parked_stamp:
            # Routing moved: any parked entry may now be deliverable, or owed
            # to different peers.  They re-enter the queue ahead of the
            # fresh marks, oldest first.
            self._parked_stamp = stamp
            self.stats.requeues += len(self._parked)
            self._dirty = self._unpark() + self._dirty
        batches: Dict[str, List[Version]] = {}
        dirty, self._dirty = self._coalesce(self._dirty), []
        cap = self.settings.effective_max_per_round()
        if cap is not None and len(dirty) > cap:
            self._dirty = dirty[cap:]
            dirty = dirty[:cap]
        self.stats.entries_examined += len(dirty)
        reachable: Dict[str, bool] = {}
        for version, delivered in dirty:
            # Owed: the key's *current* peer replicas (a membership change
            # re-targets a requeued push) minus those that already got it.
            peers = self.config.peer_replicas(version.key, self.server.name)
            deferred = False
            for peer in peers:
                if delivered is not None and peer in delivered:
                    continue
                connected = reachable.get(peer)
                if connected is None:
                    connected = reachable[peer] = partitions.connected(
                        self.server.name, peer)
                if not connected:
                    # The peer is unreachable: park the version so it is
                    # pushed once the partition heals (epidemic repair).
                    deferred = True
                    continue
                batches.setdefault(peer, []).append(version)
                delivered = (*(delivered or ()), peer)
            if deferred:
                self._parked[self._next_slot] = (version, delivered)
                if not version.siblings:
                    self._parked_plain.setdefault(version.key, []).append(
                        self._next_slot)
                self._next_slot += 1
        # The acks owed to a peer ride its first chunk; the rest go first,
        # as ``mav.notify``.
        owed = self.server.mav.owed
        riding = {peer: owed.pop(peer) for peer in batches if peer in owed}
        self.server.send_owed_acks()
        tracer = self._tracer
        pushed = 0
        for peer, versions in batches.items():
            acks = riding.get(peer, ())
            for start in range(0, len(versions), self.settings.batch_size):
                chunk = versions[start:start + self.settings.batch_size]
                pushed += len(chunk)
                self.stats.versions_pushed += len(chunk)
                self.stats.messages += 1
                trace = None
                if tracer is not None:
                    # Anti-entropy is background work no client caused:
                    # each push starts a trace of its own, and the receiving
                    # server's span chains under it.
                    trace = tracer.start_span(
                        f"ae.push:{self.server.name}->{peer}", "ae",
                        parent=None, site=self.server.name,
                        start_ms=self.env.now)
                    trace.attrs["versions"] = len(chunk)
                    tracer.finish(trace, self.env.now)
                size_bytes = self.settings.bytes_per_version * len(chunk)
                self.server.network.send(
                    self.server.name, peer, "ae.push",
                    {"versions": chunk, "acks": acks, "size_bytes": size_bytes},
                    size_bytes=size_bytes, trace=trace)
                acks = ()
        return pushed
