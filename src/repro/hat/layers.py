"""Composable guarantee layers over the shared replica-access core.

The paper's Sections 4-5 establish that HAT guarantees *compose*: write
buffering gives Read Committed, per-transaction sibling metadata gives
Monotonic Atomic View, client-side read caching gives Item/Predicate Cut
Isolation, and the four session guarantees (monotonic reads, monotonic
writes, writes-follow-reads, read-your-writes) stack on any of them — with
read-your-writes, PRAM, and causal consistency additionally requiring sticky
availability.  Each of those constructions is one :class:`GuaranteeLayer`
here; :class:`~repro.hat.clients.base.LayeredClient` drives an ordered stack
of them, and the :mod:`repro.hat.protocols` registry assembles stacks from
spec strings such as ``"mav+causal"``.

Layer hook points (all optional):

``plan``
    Rewrite the operation list before execution (cut isolation removes
    repeated reads).
``begin``
    Simulation generator run before the first operation; the session layer
    forwards the session's dependencies (monotonic writes, then
    writes-follow-reads) to the replicas a failed-over transaction is about
    to write through, so "happened-before" data is in place before the new
    writes land.
``buffer_write`` / ``serve_read`` / ``flush``
    Client-side write buffering (Section 5.1.1's Read Committed construction
    and Appendix B's MAV commit protocol).
``before_read``
    Attach per-request metadata (the MAV ``required`` map).
``read_floor``
    Every replica answer passes through it before ``after_read`` and returns
    the version the read reveals: the session layer enforces its lower bounds
    there (a sticky client substitutes the floor for a stale answer) and
    records which replica holds what.
``after_read``
    Harvest metadata from the revealed version (MAV's sibling bounds).
``finalize``
    Post-commit bookkeeping (session memory, cut-isolation replay).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.errors import UnavailableError
from repro.hat.clients.base import VALUE_BYTES, LayeredClient, TxnContext
from repro.hat.transaction import READ, SCAN, WRITE, Operation, ReadObservation
from repro.sim.process import all_of
from repro.storage.records import (
    METADATA_BYTES, NO_SIBLINGS, SIBLING_BYTES, Timestamp, Version, new_tuple)


class GuaranteeLayer:
    """Base class: every hook is a no-op so layers override only what they use."""

    #: Registry token(s) this layer implements (``"rc"``, ``"mr+ryw"``, ...).
    token: str = ""

    def __init__(self) -> None:
        self.client: Optional[LayeredClient] = None

    def attach(self, client: LayeredClient) -> None:
        self.client = client

    # -- hook points --------------------------------------------------------------
    def plan(self, operations: List[Operation], ctx: TxnContext) -> List[Operation]:
        return operations

    def begin(self, ctx: TxnContext) -> Generator:
        return
        yield  # pragma: no cover - makes ``begin`` a generator

    def buffer_write(self, ctx: TxnContext, op: Operation) -> None:
        raise NotImplementedError

    def serve_read(self, ctx: TxnContext, op: Operation) -> Optional[Version]:
        return None

    def before_read(self, ctx: TxnContext, op: Operation,
                    payload: Dict[str, Any]) -> None:
        return None

    def read_floor(self, ctx: TxnContext, op: Operation, replica: str,
                   version: Version) -> Version:
        return version

    def after_read(self, ctx: TxnContext, op: Operation, version: Version) -> None:
        return None

    def flush(self, ctx: TxnContext) -> Generator:
        return
        yield  # pragma: no cover

    def finalize(self, ctx: TxnContext) -> None:
        return None


def bound_hooks(layers: List[GuaranteeLayer], name: str) -> list:
    """The bound ``name`` hooks a driver calls, in stack order: every layer's
    but those still the inherited no-op."""
    noop = getattr(GuaranteeLayer, name)
    return [getattr(layer, name) for layer in layers
            if getattr(layer, name).__func__ is not noop]


# ---------------------------------------------------------------------------
# Write buffering (Read Committed) and atomic visibility (MAV)
# ---------------------------------------------------------------------------

class WriteBufferingLayer(GuaranteeLayer):
    """Read Committed: buffer writes client-side until commit.

    "If each client never writes uncommitted data to shared copies of data,
    then transactions will never read each others' dirty data.  As a simple
    solution, clients can buffer their writes until they commit."
    (Section 5.1.1.)  Reads of a key the transaction has written are served
    from the buffer; at commit every buffered write is flushed in parallel,
    all carrying the transaction's single timestamp.
    """

    token = "rc"

    def attach(self, client: LayeredClient) -> None:
        super().attach(client)
        client._write_layer = self

    def buffer_write(self, ctx: TxnContext, op: Operation) -> None:
        ctx.write_buffer[op.key] = op.value

    def serve_read(self, ctx: TxnContext, op: Operation) -> Optional[Version]:
        if op.key not in ctx.write_buffer:
            return None
        return Version(op.key, ctx.write_buffer[op.key],
                       self.client._txn_timestamp(ctx), ctx.transaction.txn_id)

    def flush(self, ctx: TxnContext) -> Generator:
        client = self.client
        # One commit timestamp for the whole batch, redrawn here if a read
        # after the early draw (a buffered-write echo) witnessed newer
        # versions — otherwise the batch would lose LWW to what it read.
        versions = self._flush_versions(
            ctx, client._txn_timestamp(ctx, refresh=True))
        siblings = len(versions[0].siblings) if versions else 0  # metadata_bytes, inline
        size_bytes = VALUE_BYTES + (
            METADATA_BYTES + SIBLING_BYTES * max(siblings - 1, 0) if siblings else 0)
        futures = []
        for version in versions:
            replica = client._pick_replica(version.key)
            ctx.write_targets[version.key] = replica
            ctx.written_versions[version.key] = version
            futures.append(client._issue(
                ctx.result, replica, client.put_kind, {"version": version},
                size_bytes))
        if futures:
            yield all_of(client.node.env, futures)

    def _flush_versions(self, ctx: TxnContext,
                        timestamp: Timestamp) -> List[Version]:
        txn_id = ctx.transaction.txn_id
        return [new_tuple(Version, (key, value, timestamp, txn_id, NO_SIBLINGS, False))
                for key, value in ctx.write_buffer.items()]


class AtomicVisibilityLayer(WriteBufferingLayer):
    """Monotonic Atomic View: the client side of Appendix B's algorithm.

    Extends write buffering (MAV is strictly stronger than RC in Figure 2)
    with a ``required`` map — "effectively a vector clock whose entries are
    data items".  Reads attach the current lower bound for the item; the
    returned write's timestamp and sibling list raise the lower bounds for
    the other items written by the same transaction, so that once any effect
    of a transaction is observed, all of its effects are.  Commit sends every
    buffered write with the full sibling list.
    """

    token = "mav"

    def attach(self, client: LayeredClient) -> None:
        super().attach(client)
        client.get_kind = "mav.get"
        client.put_kind = "mav.put"

    def before_read(self, ctx: TxnContext, op: Operation,
                    payload: Dict[str, Any]) -> None:
        payload["required"] = ctx.required.get(op.key)

    def after_read(self, ctx: TxnContext, op: Operation, version: Version) -> None:
        # Raise the lower bound for every sibling of the observed write:
        # future reads must see this transaction's effects.
        for sibling in version.siblings:
            current = ctx.required.get(sibling)
            if current is None or version.timestamp > current:
                ctx.required[sibling] = version.timestamp

    def _flush_versions(self, ctx: TxnContext,
                        timestamp: Timestamp) -> List[Version]:
        # One sibling set per transaction, shared by all of its writes.
        txn_id, siblings = ctx.transaction.txn_id, frozenset(ctx.write_buffer)
        return [new_tuple(Version, (key, value, timestamp, txn_id, siblings, False))
                for key, value in ctx.write_buffer.items()]


# ---------------------------------------------------------------------------
# Item and Predicate Cut Isolation (Section 5.1.1)
# ---------------------------------------------------------------------------

class CutIsolationLayer(GuaranteeLayer):
    """Item and Predicate Cut Isolation via per-transaction read caching.

    "It is possible to satisfy Item Cut Isolation with high availability by
    having transactions store a copy of any read data at the client such that
    the values that they read for each item never changes unless they
    overwrite it themselves."  The layer rewrites the plan so repeats never
    re-contact a replica — which both guarantees the cut and saves RPCs.
    """

    token = "ci"

    def plan(self, operations: List[Operation], ctx: TxnContext) -> List[Operation]:
        """Keep the first read of each item and the first evaluation of each
        named predicate; ``finalize`` answers the repeats from those."""
        seen_keys: Dict[str, None] = {}
        #: predicate name -> position of its first evaluation among the scans.
        seen_predicates: Dict[str, int] = {}
        plan: List[Operation] = []
        ctx.duplicate_reads = []
        ctx.duplicate_scans = []
        written: Dict[str, None] = {}
        for op in operations:
            if op.kind == READ:
                if op.key in seen_keys and op.key not in written:
                    ctx.duplicate_reads.append(op.key)
                    continue
                seen_keys[op.key] = None
                plan.append(op)
            elif op.kind == SCAN:
                name = op.predicate_name or "predicate"
                if name in seen_predicates:
                    ctx.duplicate_scans.append(seen_predicates[name])
                    continue
                seen_predicates[name] = len(seen_predicates)
                plan.append(op)
            else:
                if op.kind == WRITE:
                    written[op.key] = None
                plan.append(op)
        return plan

    def finalize(self, ctx: TxnContext) -> None:
        """Answer repeats from the cache of first observations."""
        result = ctx.result
        first_seen: Dict[str, Version] = {}
        for observation in result.reads:
            first_seen.setdefault(observation.key, observation.version)
        for key in ctx.duplicate_reads:
            if key in first_seen:
                result.reads.append(ReadObservation(key, first_seen[key]))
        for first in ctx.duplicate_scans:
            result.scan_results.append(list(result.scan_results[first]))


# ---------------------------------------------------------------------------
# Session guarantees (Section 5.1.3)
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class OwedIndex:
    """The keys of one remembered map that forwarding still has to examine.

    Invariant: a remembered key *outside* ``owed`` holds the bottom version,
    or one the replica it routes to under ``stamp`` served or accepted (or a
    newer one): routing is a pure function of the stamp, so a key becomes
    owed only when the stamp moves, and then every key does.
    """

    #: Owed keys in first-remembered order (the map's insertion order).
    owed: List[str] = field(default_factory=list)
    #: ``(ClusterConfig.epoch, PartitionManager.generation)`` the map was
    #: last examined in full under, or the session began under.
    stamp: Optional[Tuple[int, int]] = None


@dataclass
class SessionState:
    """Everything a session remembers across transactions.

    The read floors consult the two version maps, forwarding pushes them to
    replicas a failed-over session writes through, and the holder map records
    which replicas are already known to store a remembered version so
    steady-state (sticky, unpartitioned) operation forwards nothing.  A map
    a row forwards has an :class:`OwedIndex`: on a healthy network no key is
    owed and forwarding examines nothing.  A stack that forwards nothing
    keeps neither holders nor owed keys.
    """

    #: Highest version observed by a session read, per key (MR floor; the
    #: versions writes-follow-reads must order before the session's writes).
    last_seen: Dict[str, Version] = field(default_factory=dict)
    #: Highest version this session has written per key (RYW floor; the
    #: versions monotonic writes must order before the session's writes).
    own_writes: Dict[str, Version] = field(default_factory=dict)
    #: Diagnostics: how often a read was served from the session cache.
    cache_hits: int = 0
    #: Diagnostics: reads that would have violated a guarantee had the cache
    #: not been consulted (or that *did* violate it in non-sticky mode).
    stale_reads: int = 0
    #: Diagnostics: remembered keys forwarding examined / versions it sent.
    forward_probes: int = 0
    forwards_issued: int = 0
    #: key -> (timestamp, replicas known to hold that version or newer); a
    #: tuple, not a set: at most one replica per cluster, one entry per key.
    holders: Dict[str, Tuple[Timestamp, Tuple[str, ...]]] = field(
        default_factory=dict)
    #: What forwarding owes from ``last_seen`` / ``own_writes`` (None: unforwarded).
    seen_owed: Optional[OwedIndex] = None
    own_owed: Optional[OwedIndex] = None

    # -- holder tracking ---------------------------------------------------------
    def note_holder(self, key: str, timestamp: Timestamp, replica: str) -> None:
        current = self.holders.get(key)
        if current is None or timestamp > current[0]:
            self.holders[key] = (timestamp, (replica,))
        elif timestamp == current[0] and replica not in current[1]:
            self.holders[key] = (timestamp, current[1] + (replica,))

    def holders_of(self, key: str, timestamp: Timestamp) -> Tuple[str, ...]:
        """Replicas known to hold ``key`` at ``timestamp`` *or newer*: under
        last-writer-wins a replica storing a newer version of the key already
        orders the superseded one, so there is nothing left to send it."""
        current = self.holders.get(key)
        if current is None or current[0] < timestamp:
            return ()
        return current[1]


#: The four session guarantees of Section 5.1.3, in canonical stacking order:
#: what each remembers (``"reads"`` raise ``last_seen``, ``"writes"`` raise
#: ``own_writes``) and what it does with that memory — bound what a read may
#: reveal (``"floor"``, the client-side caching construction of MR and RYW)
#: or forward it ahead of the transaction's writes (``"forward"``, the
#: constructive halves of MW and WFR).  PRAM is MR + MW + RYW; causal
#: consistency is PRAM + WFR.
SESSION_ROWS: Dict[str, Tuple[str, str]] = {
    "mr": ("reads", "floor"),
    "mw": ("writes", "forward"),
    "wfr": ("reads", "forward"),
    "ryw": ("writes", "floor"),
}


class SessionLayer(GuaranteeLayer):
    """The session guarantees of one spec over the session's memory.

    Built from the spec's session tokens, each a row of :data:`SESSION_ROWS`;
    it owns the client's :class:`SessionState` and binds only the hooks its
    rows use: ``read_floor`` when a row bounds reads or a forwarding stack
    remembers them (holder tracking), ``begin`` when a row forwards, and
    ``finalize``.  Floors repair stale reads on a sticky client only; a
    non-sticky client records the violation (Section 5.1.3's impossibility).
    """

    def __init__(self, tokens: frozenset) -> None:
        super().__init__()
        rows = [(token, *row) for token, row in SESSION_ROWS.items()
                if token in tokens]
        #: The rows' tokens in canonical order (``"mr+mw+wfr+ryw"``).
        self.token = "+".join([token for token, _, _ in rows])
        forwarded = {kind for _, kind, use in rows if use == "forward"}
        self.state = state = SessionState(
            seen_owed=OwedIndex() if "reads" in forwarded else None,
            own_owed=OwedIndex() if "writes" in forwarded else None)
        memory = {"reads": (state.last_seen, state.seen_owed),
                  "writes": (state.own_writes, state.own_owed)}
        remembered = {kind for _, kind, _ in rows}
        self._reads = "reads" in remembered
        self._writes = "writes" in remembered
        self._note_reads = self._reads and bool(forwarded)  # holders serve forwarding
        #: The remembered maps a read may reveal nothing older than.
        self._floors = [memory[kind][0] for _, kind, use in rows
                        if use == "floor"]
        #: (token, versions, owed index) forwarded before writes, in order.
        self._forwards = [(token, *memory[kind]) for token, kind, use in rows
                          if use == "forward"]
        # A hook no row uses stays the inherited no-op, which bound_hooks skips.
        if not (self._note_reads or self._floors):
            self.read_floor = super().read_floor
        if not self._forwards:
            self.begin = super().begin

    def attach(self, client: LayeredClient) -> None:
        super().attach(client)
        client.session = self.state
        stamp = (client.node.config.epoch, client.node.network.partitions.generation)
        for _, _, index in self._forwards:  # nothing remembered, nothing owed
            index.stamp = stamp

    # -- hooks ---------------------------------------------------------------------
    def begin(self, ctx: TxnContext) -> Generator:
        """Forward each forwarding row's memory when the transaction writes,
        one row after the other; a row that sent something earns a
        ``layer:<token>.begin`` span (empty ones would drown the trace).
        While routing stays put and no key is owed, it returns at once."""
        client = self.client
        stamp = (client.node.config.epoch, client.node.network.partitions.generation)
        for _, _, index in self._forwards:
            if index.owed or index.stamp != stamp:
                break
        else:
            return
        overwritten = {op.key for op in ctx.plan if op.kind == WRITE}
        if not overwritten:
            return
        trace = ctx.transaction.trace
        env = client.node.env
        for token, versions, index in self._forwards:
            began_at = env._now
            yield from self._forward(ctx, versions, index, overwritten)
            if trace is not None and env._now > began_at:
                tracer = client._tracer
                span = tracer.start_span(f"layer:{token}.begin", "layer", trace,
                                         client.node.name, began_at)
                tracer.finish(span, env.now)

    def read_floor(self, ctx: TxnContext, op: Operation, replica: str,
                   version: Version) -> Version:
        """What a read reveals: the replica's answer, unless a floor is newer.

        The holder note uses the answer itself — a repaired read says
        nothing about what the stale replica stores.  A sticky client serves
        the higher floor in place of a stale answer ("a client might cache its
        reads and writes"); a non-sticky one records the violation and
        returns the stale version.
        """
        key = op.key
        state = self.state
        if self._note_reads:
            state.note_holder(key, version.timestamp, replica)
        floor = None
        for versions in self._floors:
            candidate = versions.get(key)
            if candidate is not None and (
                    floor is None or candidate.timestamp > floor.timestamp):
                floor = candidate
        if floor is None or version.timestamp >= floor.timestamp:
            return version
        state.stale_reads += 1
        client = self.client
        if not client.sticky:
            return version
        state.cache_hits += 1
        trace = ctx.transaction.trace
        if trace is not None:
            event = client._tracer.event("session-repair", trace,
                                         client.node.name, client.node.env.now)
            event.attrs["key"] = key
        return floor

    def finalize(self, ctx: TxnContext) -> None:
        """Raise ``last_seen`` to what the transaction read and ``own_writes``
        to its installed versions, each held by the replica that accepted it
        — whichever of the two the rows remember."""
        state = self.state
        if self._reads:
            last_seen = state.last_seen
            for observation in ctx.result.reads:
                version = observation.version
                current = last_seen.get(observation.key)
                if current is None or version.timestamp > current.timestamp:
                    last_seen[observation.key] = version
        if self._writes:
            own_writes = state.own_writes
            targets = ctx.write_targets if self._forwards else None
            for key, version in ctx.written_versions.items():
                timestamp = version.timestamp
                current = own_writes.get(key)
                if current is None or timestamp > current.timestamp:
                    own_writes[key] = version
                if targets is not None:
                    state.note_holder(key, timestamp, targets[key])

    def _forward(self, ctx: TxnContext, versions: Dict[str, Version],
                 index: OwedIndex, overwritten: Set[str]) -> Generator:
        """Push remembered versions to the replicas this transaction can reach.

        Before a (possibly failed-over) transaction writes, the versions that
        must become visible *first* are installed at whichever replica the
        client would currently contact for them.  Replicas that already hold
        a version — or a newer one of the same key, which orders it under
        last-writer-wins — are skipped, so a sticky session on a healthy
        network forwards nothing.  So are the keys in ``overwritten`` (the
        transaction's own newer writes supersede them) and unreachable
        dependency replicas — transactional availability only requires
        replicas for the items the transaction itself accesses (Section 4.2).

        Only the owed keys of ``versions`` are examined, in first-remembered
        order; once routing moved (membership epoch or partition generation)
        every key is owed again, and stays owed until its routed replica is
        found to hold it.
        """
        client = self.client
        state = self.state
        stamp = (client.node.config.epoch, client.node.network.partitions.generation)
        if index.stamp != stamp:
            index.stamp = stamp
            index.owed = list(versions)
        candidates = index.owed
        state.forward_probes += len(candidates)
        owed = index.owed = []
        futures = []
        delivered: List[Tuple[str, Timestamp, str]] = []
        for key in candidates:
            version = versions[key]
            if version.txn_id is None:
                continue  # the initial (bottom) version needs no forwarding
            owed.append(key)
            if key in overwritten:
                continue  # this transaction's own newer write supersedes it
            try:
                replica = client._pick_replica(key)
            except UnavailableError:
                continue
            if replica in state.holders_of(key, version.timestamp):
                owed.pop()
                continue
            futures.append(client._issue(
                ctx.result, replica, client.put_kind, {"version": version},
                VALUE_BYTES + (version.metadata_bytes if version.siblings else 0)))
            delivered.append((key, version.timestamp, replica))
        if futures:
            state.forwards_issued += len(futures)
            yield all_of(client.node.env, futures)
        for key, timestamp, replica in delivered:
            state.note_holder(key, timestamp, replica)
