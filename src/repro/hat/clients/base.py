"""Shared machinery for protocol clients: the replica-access core.

Two client shapes live here:

* :class:`ProtocolClient` — timestamps, RPC helpers, and result assembly.
  The non-HAT baselines (master, two-phase locking, quorum) subclass it
  directly and implement :meth:`ProtocolClient._run` as a monolithic
  generator.
* :class:`LayeredClient` — the HAT replica-access core.  Its ``_run`` is a
  generic driver that walks the transaction's operations against sticky
  replicas and delegates every *guarantee* decision (write buffering, atomic
  visibility metadata, cut-isolation caching, session floors and dependency
  forwarding) to an ordered stack of :class:`~repro.hat.layers.GuaranteeLayer`
  objects.  This is the paper's composability result made executable: Read
  Committed is the core plus a write-buffering layer, MAV swaps in an
  atomic-visibility layer, and the session guarantees stack on top of either
  (Sections 4-5).  The :mod:`repro.hat.protocols` registry turns spec strings
  like ``"mav+causal"`` into such stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from repro.cluster.client import ClientNode
from repro.errors import (
    OverloadedError,
    RequestTimeout,
    TransactionAborted,
    UnavailableError,
)
from repro.hat.transaction import (
    Operation,
    ReadObservation,
    Transaction,
    TransactionResult,
    resolve_derived,
)
from repro.sim import Process
from repro.sim.process import all_of
from repro.storage.records import Timestamp, Version

#: YCSB's default value size, also used by the paper (1 KB).
DEFAULT_VALUE_BYTES = 1024


class ProtocolClient:
    """Base class: timestamps, RPC helpers, and result assembly.

    Subclasses implement :meth:`_run`, a generator that performs the
    transaction's operations and returns the list of read observations (plus
    any scan results) by mutating the result object passed to it.
    """

    protocol_name = "abstract"
    #: HAT clients may fail over to any reachable replica; non-HAT clients
    #: must reach specific servers (master or a quorum).
    highly_available = True

    def __init__(self, node: ClientNode, recorder: Optional[object] = None,
                 value_bytes: int = DEFAULT_VALUE_BYTES,
                 rpc_timeout_ms: Optional[float] = None,
                 breaker: Optional[object] = None):
        self.node = node
        self.recorder = recorder
        self.value_bytes = value_bytes
        self.rpc_timeout_ms = rpc_timeout_ms
        #: Optional :class:`~repro.overload.retry.CircuitBreaker`, usually
        #: shared by every session of one pool.  While open, transactions
        #: fail fast with :class:`~repro.errors.OverloadedError` before
        #: issuing a single RPC — the client-side half of load shedding.
        self.breaker = breaker
        self.session_id = node.client_id
        self._home_servers = frozenset(
            node.config.cluster(node.home_cluster).servers
        )
        # Both sinks are installed before any client is built; each is None
        # unless the scenario asked for it.
        network = node.network
        self._tracer = network.tracer
        self._staleness = (None if network.metrics is None
                           else network.metrics.staleness)

    # -- public API ---------------------------------------------------------------
    def execute(self, transaction: Transaction) -> Process:
        """Run ``transaction``; the returned process resolves to its result."""
        process = self.node.env.process(self._execute(transaction))
        tracer = self._tracer
        if tracer is not None:
            # The span carries no session_id: client ids come from a
            # process-global counter, so they diverge between --jobs pool
            # layouts.  The site (node name) identifies the session
            # deterministically.  The span is its own trace context.
            process.trace = transaction.trace = tracer.begin_transaction(
                transaction.txn_id, self.protocol_name, self.node.name,
                self.node.env.now, label=transaction.label)
        return process

    # -- core driver -------------------------------------------------------------
    def _execute(self, transaction: Transaction) -> Generator:
        transaction.session_id = self.session_id
        result = TransactionResult(
            txn_id=transaction.txn_id,
            committed=False,
            protocol=self.protocol_name,
            session_id=self.session_id,
            start_ms=self.node.env.now,
        )
        breaker = self.breaker
        denied = False
        try:
            if breaker is not None and not breaker.allow(self.node.env.now):
                denied = True
                if transaction.trace is not None:
                    event = self._tracer.event(
                        "breaker-open", transaction.trace,
                        self.node.name, self.node.env.now)
                    event.attrs["protocol"] = self.protocol_name
                raise OverloadedError("circuit breaker open")
            yield from self._run(transaction, result)
            result.committed = True
        except TransactionAborted as abort:
            result.error = str(abort) or abort.__class__.__name__
            result.internal_abort = abort.internal
        except RequestTimeout as timeout:
            result.error = str(timeout)
        result.end_ms = self.node.env.now
        if breaker is not None and not denied:
            # A denied attempt says nothing about the backend, so it is
            # not recorded.  An internal abort counts as success: the
            # system completed the round trip, the transaction chose to
            # abort itself.
            breaker.record(result.committed or result.internal_abort,
                           result.end_ms)
        result.writes = transaction.write_set if result.committed else {}
        tracer = self._tracer
        if tracer is not None:
            tracer.finish_transaction(transaction.txn_id, result.end_ms,
                                      result.committed, error=result.error,
                                      remote_rpcs=result.remote_rpcs)
        if self.recorder is not None:
            self.recorder.record(transaction, result)
        return result

    def _run(self, transaction: Transaction, result: TransactionResult) -> Generator:
        raise NotImplementedError

    # -- helpers for subclasses -------------------------------------------------------
    def _make_version(self, key: str, value: Any, timestamp: Timestamp,
                      txn_id: int, siblings=frozenset()) -> Version:
        return Version(key=key, value=value, timestamp=timestamp,
                       txn_id=txn_id, siblings=frozenset(siblings))

    def _rpc(self, dst: str, kind: str, payload: Dict[str, Any]):
        """Issue one RPC without remote-hop accounting."""
        return self.node.rpc(dst, kind, payload, timeout_ms=self.rpc_timeout_ms)

    def _issue(self, result: TransactionResult, dst: str, kind: str,
               payload: Dict[str, Any]):
        """Issue one RPC, counting a remote hop at the moment it is sent.

        The remote-RPC diagnostic counts round trips that actually left the
        client's home cluster, so the counter is bumped here — where the RPC
        is issued — rather than when a fallback replica is merely *selected*
        (a selection whose RPC may never happen, e.g. because an earlier
        parallel write times out first).
        """
        if dst not in self._home_servers:
            result.remote_rpcs += 1
        return self._rpc(dst, kind, payload)

    def _pick_replica(self, key: str) -> str:
        """The replica a HAT client contacts for ``key``.

        Preference order: the sticky (home-cluster) replica, then any replica
        the client can currently reach.  Raises
        :class:`~repro.errors.UnavailableError` only when *no* replica for the
        item is reachable, which is exactly the replica-availability
        precondition of transactional availability (Section 4.2).
        """
        sticky = self.node.sticky_replica(key)
        partitions = self.node.network.partitions
        if partitions.connected(self.node.name, sticky):
            return sticky
        reachable = self.node.reachable_replicas(key)
        if not reachable:
            raise UnavailableError(f"no reachable replica for key {key!r}")
        trace = self.node.env.current_trace
        if trace is not None:
            event = self._tracer.event("failover", trace, self.node.name,
                                       self.node.env.now)
            event.attrs["key"] = key
            event.attrs["from"] = sticky
            event.attrs["to"] = reachable[0]
        return reachable[0]

    def _observe(self, result: TransactionResult, key: str, version: Version) -> Version:
        # Lamport receive rule: future timestamps must order after anything
        # this client has read, or LWW would discard its subsequent writes.
        self.node.witness_timestamp(version.timestamp)
        staleness = self._staleness
        if staleness is not None:
            # Every read any stack serves flows through here — replica
            # replies, session-cache repairs, and buffered-write echoes
            # alike — so this is the single k-staleness probe point.
            staleness.on_read(key, version.timestamp, self.node.env._now)
        result.reads.append(ReadObservation(key=key, version=version))
        return version

    def _scan_home_cluster(self, op: Operation, result: TransactionResult) -> Generator:
        """Run a predicate read against every server of the home cluster.

        Data is hash-partitioned within a cluster, so a predicate read must
        consult all of the cluster's servers and merge their matches.
        """
        servers = self.node.config.cluster(self.node.home_cluster).servers
        futures = [
            self._rpc(server, "ru.scan", {"predicate": op.predicate})
            for server in servers
        ]
        replies = yield all_of(self.node.env, futures)
        versions = [version for reply in replies for version in reply["versions"]]
        result.scan_results.append(versions)
        return versions


@dataclass(slots=True)
class ReadRequest:
    """One replica read about to be issued; layers may rewrite it."""

    kind: str
    payload: Dict[str, Any]


@dataclass(slots=True)
class TxnContext:
    """Per-transaction scratch state shared by the driver and its layers.

    ``timestamp`` is drawn *lazily* (see :meth:`LayeredClient._txn_timestamp`)
    so that it orders after every version the transaction has read by the
    time its writes install — the write-side half of the Lamport rule.
    """

    transaction: Transaction
    result: TransactionResult
    timestamp: Optional[Timestamp]
    #: Operation list after the layers' ``plan`` rewrites.
    plan: List[Operation] = field(default_factory=list)
    #: key -> value buffered by a write-buffering layer until commit.
    write_buffer: Dict[str, Any] = field(default_factory=dict)
    #: MAV lower bounds: item -> minimum timestamp the next read must honour.
    required: Dict[str, Timestamp] = field(default_factory=dict)
    #: key -> replica that accepted the transaction's write for that key.
    write_targets: Dict[str, str] = field(default_factory=dict)
    #: key -> the version actually installed for that key (with metadata).
    written_versions: Dict[str, Version] = field(default_factory=dict)
    #: Cut-isolation bookkeeping: repeated reads/scans removed from the plan.
    duplicate_reads: List[str] = field(default_factory=list)
    duplicate_scans: List[str] = field(default_factory=list)


class LayeredClient(ProtocolClient):
    """The shared replica-access core: a driver plus a guarantee-layer stack.

    With an empty stack this *is* the paper's ``eventual`` configuration:
    every write applies immediately at a sticky replica, every read returns
    the replica's latest version.  Layers hook the driver at fixed points —
    ``plan`` (rewrite the operation list), ``begin`` (pre-transaction RPCs,
    e.g. session dependency forwarding), ``buffer_write``/``serve_read``
    (client-side buffering), ``before_read``/``after_read`` (request metadata
    such as MAV lower bounds), ``read_floor`` (session lower bounds on
    revealed versions), ``flush`` (the commit-time write batch), and
    ``finalize`` (post-commit bookkeeping).
    """

    #: Default layer stack, instantiated per client (subclasses override).
    core_layer_factories = ()
    #: RPC verbs the core uses; an atomic-visibility layer swaps in ``mav.*``.
    get_kind = "ru.get"
    put_kind = "ru.put"

    def __init__(self, node: ClientNode, layers: List[object],
                 protocol_name: Optional[str] = None, sticky: bool = True,
                 **kwargs):
        super().__init__(node, **kwargs)
        if protocol_name is not None:
            self.protocol_name = protocol_name
        #: Sticky clients repair stale reads from the session cache; a
        #: non-sticky client records the violation instead (Section 5.1.3).
        self.sticky = sticky
        self.layers = list(layers)
        #: Shared session state, set by the first session layer to attach.
        self.session = None
        #: The (single) layer that buffers writes until commit, if any.
        self._write_layer = None
        for layer in self.layers:
            layer.attach(self)

    # -- diagnostics -------------------------------------------------------------
    def violations(self) -> int:
        """Stale reads that were *not* repaired (non-sticky clients)."""
        if self.session is None:
            return 0
        return self.session.stale_reads - self.session.cache_hits

    # -- the driver ---------------------------------------------------------------
    def _txn_timestamp(self, ctx: TxnContext, refresh: bool = False) -> Timestamp:
        """The transaction's write timestamp, drawn on first use.

        Deferring the draw until a write needs it (or the transaction ends)
        lets the reads that precede it advance the node's Lamport counter
        first, so the installed version orders after everything this
        transaction observed — without it, a fresh client's first write
        would carry a lower sequence than a preloaded version and silently
        lose last-writer-wins.

        ``refresh=True`` (used at the moment a write actually installs)
        additionally redraws a timestamp that has gone stale because a
        *later* read witnessed a higher sequence — e.g. a buffered-write
        echo forced an early draw, or an earlier direct write fixed the
        timestamp before a subsequent read.  All writes of one flush batch
        share the single timestamp drawn at the start of the flush.
        """
        if ctx.timestamp is None or (
                refresh and self.node.timestamp_is_stale(ctx.timestamp)):
            ctx.timestamp = self.node.next_timestamp()
            ctx.result.timestamp = ctx.timestamp
        return ctx.timestamp

    def _run(self, transaction: Transaction, result: TransactionResult) -> Generator:
        ctx = TxnContext(transaction=transaction, result=result, timestamp=None)
        tracer = self._tracer
        trace = transaction.trace if tracer is not None else None
        env = self.node.env
        plan = list(transaction.operations)
        for layer in self.layers:
            plan = layer.plan(plan, ctx)
        ctx.plan = plan
        for layer in self.layers:
            if trace is None:
                yield from layer.begin(ctx)
                continue
            began_at = env.now
            yield from layer.begin(ctx)
            if env.now > began_at:
                # Only begins that did work (session dependency forwarding
                # RPCs) earn a span; empty begins would drown the trace.
                span = tracer.start_span(
                    f"layer:{layer.token or type(layer).__name__}.begin",
                    "layer", trace, self.node.name, began_at)
                tracer.finish(span, env.now)
        for op in plan:
            if op.is_write:
                op = resolve_derived(transaction, op, result)
                if self._write_layer is not None:
                    self._write_layer.buffer_write(ctx, op)
                else:
                    yield from self._direct_write(ctx, op)
            elif op.is_read:
                yield from self._layered_read(ctx, op)
            else:
                yield from self._scan_home_cluster(op, result)
        if self._write_layer is not None:
            if trace is None:
                yield from self._write_layer.flush(ctx)
            else:
                flushed_at = env.now
                yield from self._write_layer.flush(ctx)
                span = tracer.start_span(
                    f"layer:{self._write_layer.token}.flush", "layer",
                    trace, self.node.name, flushed_at)
                span.attrs["writes"] = len(ctx.write_buffer)
                tracer.finish(span, env.now)
        # Read-only transactions still get a commit timestamp (post-reads).
        self._txn_timestamp(ctx)
        for layer in self.layers:
            layer.finalize(ctx)

    def _direct_write(self, ctx: TxnContext, op: Operation) -> Generator:
        """Apply one write immediately at a sticky replica (Read Uncommitted)."""
        replica = self._pick_replica(op.key)
        version = self._make_version(op.key, op.value,
                                     self._txn_timestamp(ctx, refresh=True),
                                     ctx.transaction.txn_id)
        yield self._issue(ctx.result, replica, self.put_kind, {
            "version": version,
            "size_bytes": self.value_bytes,
        })
        ctx.write_targets[op.key] = replica
        ctx.written_versions[op.key] = version

    def _layered_read(self, ctx: TxnContext, op: Operation) -> Generator:
        for layer in self.layers:
            version = layer.serve_read(ctx, op)
            if version is not None:
                self._observe(ctx.result, op.key, version)
                return
        request = ReadRequest(kind=self.get_kind, payload={"key": op.key})
        for layer in self.layers:
            layer.before_read(ctx, op, request)
        replica = self._pick_replica(op.key)
        reply = yield self._issue(ctx.result, replica, request.kind, request.payload)
        replica_version = reply["version"]
        version = self._apply_read_floors(ctx, replica_version)
        for layer in self.layers:
            layer.after_read(ctx, op, version, replica, replica_version)
        self._observe(ctx.result, op.key, version)

    def _apply_read_floors(self, ctx: TxnContext, version: Version) -> Version:
        """Enforce the layers' lower bounds on revealed versions.

        A session layer may know a floor — something this session has already
        read (monotonic reads) or written (read-your-writes).  When the
        contacted replica returns something older, a sticky client serves the
        cached floor instead (the paper's client-side caching construction);
        a non-sticky client records the violation and returns the stale
        version, which is exactly the Section 5.1.3 impossibility argument.
        """
        floor: Optional[Version] = None
        for layer in self.layers:
            candidate = layer.read_floor(version.key)
            if candidate is not None and (
                floor is None or candidate.timestamp > floor.timestamp
            ):
                floor = candidate
        if floor is None or version.timestamp >= floor.timestamp:
            return version
        state = self.session
        if state is not None:
            state.stale_reads += 1
        if not self.sticky:
            return version
        if state is not None:
            state.cache_hits += 1
        if ctx.transaction.trace is not None:
            event = self._tracer.event("session-repair", ctx.transaction.trace,
                                       self.node.name, self.node.env.now)
            event.attrs["key"] = version.key
        return floor
