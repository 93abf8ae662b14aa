"""Shared machinery for protocol clients: the replica-access core.

Two client shapes live here:

* :class:`ProtocolClient` — timestamps, RPC helpers, and result assembly.
  A load driver delegates to :meth:`~ProtocolClient.transact` on its own
  process; :meth:`~ProtocolClient.execute` spawns one for one-off callers.
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
    READ,
    WRITE,
    Operation,
    ReadObservation,
    Transaction,
    TransactionResult,
    resolve_derived,
)
from repro.net.network import DEFAULT_RPC_TIMEOUT_MS
from repro.sim import Process
from repro.sim.process import all_of
from repro.storage.records import Timestamp, Version

#: The size of every written value: YCSB's default, also the paper's (1 KB).
VALUE_BYTES = 1024


class ProtocolClient:
    """Base class: timestamps, RPC helpers, and result assembly.

    Subclasses implement :meth:`_run`, a generator that performs the
    transaction's operations and returns the list of read observations (plus
    any scan results) by mutating the result object passed to it.
    """

    def __init__(self, node: ClientNode, protocol_name: str,
                 recorder: Optional[object] = None,
                 rpc_timeout_ms: Optional[float] = None,
                 breaker: Optional[object] = None):
        self.node = node
        #: The canonical name of the spec this client was built for.
        self.protocol_name = protocol_name
        self.recorder = recorder
        #: The deadline of every RPC this client issues.
        self.rpc_timeout_ms = (DEFAULT_RPC_TIMEOUT_MS if rpc_timeout_ms is None
                               else rpc_timeout_ms)
        #: Optional :class:`~repro.overload.retry.CircuitBreaker`, usually
        #: shared by every session of one pool.  While open, transactions
        #: fail fast with :class:`~repro.errors.OverloadedError` before
        #: issuing a single RPC — the client-side half of load shedding.
        self.breaker = breaker
        self.session_id = node.client_id
        self._placements = node.config.placements
        self._server_clusters = node.config._server_to_cluster  # server -> cluster
        #: The home cluster's slot in every placement record's replica list.
        self._home_index = node.config.cluster_index(node.home_cluster)
        # Both sinks are installed before any client is built; each is None
        # unless the scenario asked for it.
        network = node.network
        self._tracer = network.tracer
        self._staleness = None if network.metrics is None else network.metrics.staleness

    # -- public API ---------------------------------------------------------------
    def execute(self, transaction: Transaction) -> Process:
        """Run ``transaction`` on a process of its own, which resolves to its
        result (one-off callers; a load driver delegates to :meth:`transact`)."""
        return Process(self.node.env, self.transact(transaction))

    # -- core driver -------------------------------------------------------------
    def transact(self, transaction: Transaction) -> Generator:
        """Run ``transaction`` on the calling process: ``result = yield from
        client.transact(transaction)``.  A traced transaction's span is the
        ambient context (``env.current_trace``) from here to its return."""
        env = self.node.env
        tracer = self._tracer
        if tracer is not None:
            # The span carries no session_id: client ids come from a
            # process-global counter, so they diverge between --jobs pool
            # layouts.  The site (node name) identifies the session
            # deterministically.  The span is its own trace context.
            env.current_trace = transaction.trace = tracer.begin_transaction(
                transaction.txn_id, self.protocol_name, self.node.name,
                env._now, label=transaction.label)
        transaction.session_id = self.session_id
        # Positional (field order): once per transaction on every run.
        result = TransactionResult(
            transaction.txn_id, False, self.protocol_name, None,
            self.session_id, [], [], {}, env._now)
        breaker = self.breaker
        denied = False
        try:
            if breaker is not None and not breaker.allow(env._now):
                denied = True
                if transaction.trace is not None:
                    event = tracer.event("breaker-open", transaction.trace,
                                         self.node.name, env._now)
                    event.attrs["protocol"] = self.protocol_name
                raise OverloadedError("circuit breaker open")
            yield from self._run(transaction, result)
            result.committed = True
        except TransactionAborted as abort:
            result.error = str(abort) or abort.__class__.__name__
            result.internal_abort = abort.internal
        except RequestTimeout as timeout:
            result.error = str(timeout)
        result.end_ms = env._now
        if breaker is not None and not denied:
            # A denied attempt says nothing about the backend, so it is
            # not recorded.  An internal abort counts as success: the
            # system completed the round trip, the transaction chose to
            # abort itself.
            breaker.record(result.committed or result.internal_abort, result.end_ms)
        result.writes = transaction.write_set if result.committed else {}
        if tracer is not None:
            tracer.finish_transaction(transaction.txn_id, result.end_ms,
                                      result.committed, error=result.error,
                                      remote_rpcs=result.remote_rpcs)
            env.current_trace = None
        if self.recorder is not None:
            self.recorder.record(transaction, result)
        return result

    def _run(self, transaction: Transaction, result: TransactionResult) -> Generator:
        raise NotImplementedError

    # -- helpers for subclasses -------------------------------------------------------
    def _rpc(self, dst: str, kind: str, payload: Dict[str, Any],
             size_bytes: int = 0):
        """Issue one RPC without remote-hop accounting."""
        node = self.node
        return node.network.rpc(node.name, dst, kind, payload,
                                self.rpc_timeout_ms, size_bytes)

    def _issue(self, result: TransactionResult, dst: str, kind: str,
               payload: Dict[str, Any], size_bytes: int = 0):
        """Issue one RPC, counting a remote hop at the moment it is sent: a
        round trip that left the home cluster, not a fallback replica merely
        *selected* (its RPC may never happen, e.g. because an earlier parallel
        write times out first).  The hop test reads the configuration's server
        map in place (membership updates it): no ``cluster_of_server`` frame."""
        node = self.node
        if self._server_clusters[dst] != node.home_cluster:
            result.remote_rpcs += 1
        return node.network.rpc(node.name, dst, kind, payload,
                                self.rpc_timeout_ms, size_bytes)

    def _pick_replica(self, key: str) -> str:
        """The replica a HAT client contacts for ``key``.

        Preference order: the sticky (home-cluster) replica, then any replica
        the client can currently reach.  Raises
        :class:`~repro.errors.UnavailableError` only when *no* replica for the
        item is reachable, which is exactly the replica-availability
        precondition of transactional availability (Section 4.2).
        """
        replicas = self._placements[key].replicas
        sticky = replicas[self._home_index]
        partitions, name = self.node.network.partitions, self.node.name
        # The verdict memo first, as ``Network.send`` reads it.
        if (partitions.idle or partitions.verdicts.get((name, sticky))
                or partitions.connected(name, sticky)):
            return sticky
        reachable = partitions.reachable_from(name, replicas)
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

    def _observe(self, result: TransactionResult, key: str, version: Version) -> None:
        # Lamport receive rule, in place: no sequence at or below one read, or
        # LWW drops this client's later writes (a fresh one's, under a preload).
        node, timestamp = self.node, version.timestamp
        if timestamp is not None and timestamp.sequence >= node._next_sequence:
            node._next_sequence = timestamp.sequence + 1
        staleness = self._staleness
        if staleness is not None:
            # Every read any stack serves flows through here — replica
            # replies, session-cache repairs, and buffered-write echoes
            # alike — so this is the single k-staleness probe point.
            staleness.on_read(key, timestamp, node.env._now)
        result.reads.append(ReadObservation(key, version))

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
    #: Cut-isolation bookkeeping: repeated reads removed from the plan, and
    #: per repeated scan the position of its predicate's first evaluation.
    duplicate_reads: List[str] = field(default_factory=list)
    duplicate_scans: List[int] = field(default_factory=list)


class LayeredClient(ProtocolClient):
    """The shared replica-access core: a driver plus a guarantee-layer stack.

    With an empty stack this *is* the paper's ``eventual`` configuration:
    every write applies immediately at a sticky replica, every read returns
    the replica's latest version.  Layers hook the driver at fixed points —
    ``plan`` (rewrite the operation list), ``begin`` (pre-transaction RPCs,
    e.g. session dependency forwarding), ``buffer_write``/``serve_read``
    (client-side buffering), ``before_read``/``after_read`` (request metadata
    such as MAV lower bounds), ``read_floor`` (the version a replica answer
    reveals, under the session's lower bounds), ``flush`` (the commit-time
    write batch), and ``finalize`` (post-commit bookkeeping).
    """

    #: RPC verbs the core uses; an atomic-visibility layer swaps in ``mav.*``.
    get_kind = "ru.get"
    put_kind = "ru.put"

    def __init__(self, node: ClientNode, protocol_name: str,
                 layers: List[object], sticky: bool = True, **kwargs):
        super().__init__(node, protocol_name, **kwargs)
        #: Sticky clients repair stale reads from the session cache; a
        #: non-sticky client records the violation instead (Section 5.1.3).
        self.sticky = sticky
        self.layers = list(layers)
        #: The session layer's memory, if the stack has one.
        self.session = None
        #: The (single) layer that buffers writes until commit, if any.
        self._write_layer = None
        for layer in self.layers:
            layer.attach(self)
        # What the driver calls at each hook point: bound once, and only
        # where some layer of this stack does something there.
        from repro.hat.layers import bound_hooks  # layers imports this module

        self._plan_hooks = bound_hooks(self.layers, "plan")
        self._begin_hooks = bound_hooks(self.layers, "begin")
        self._serve_read_hooks = bound_hooks(self.layers, "serve_read")
        self._before_read_hooks = bound_hooks(self.layers, "before_read")
        self._read_floor_hooks = bound_hooks(self.layers, "read_floor")
        self._after_read_hooks = bound_hooks(self.layers, "after_read")
        self._finalize_hooks = bound_hooks(self.layers, "finalize")

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
        # A stale timestamp (reads witnessed sequences beyond it) would order
        # a write *before* a version its transaction already observed.
        if ctx.timestamp is None or (
                refresh
                and self.node._next_sequence > ctx.timestamp.sequence + 1):
            ctx.timestamp = self.node.next_timestamp()
            ctx.result.timestamp = ctx.timestamp
        return ctx.timestamp

    def _run(self, transaction: Transaction, result: TransactionResult) -> Generator:
        tracer = self._tracer
        trace = transaction.trace if tracer is not None else None
        env = self.node.env
        # Positional (field order), like every per-transaction record.
        ctx = TxnContext(transaction, result, None, (), {}, {}, {}, {}, (), ())
        plan = list(transaction.operations)
        for hook in self._plan_hooks:
            plan = hook(plan, ctx)
        ctx.plan = plan
        for begin in self._begin_hooks:
            yield from begin(ctx)
        write_layer = self._write_layer
        for op in plan:
            kind = op.kind
            if kind == READ:
                key = op.key  # inline: a reply resumes one generator less
                for serve_read in self._serve_read_hooks:
                    version = serve_read(ctx, op)
                    if version is not None:
                        break
                else:
                    payload = {"key": key}
                    for before_read in self._before_read_hooks:
                        before_read(ctx, op, payload)
                    replica = self._pick_replica(key)
                    version = (yield self._issue(result, replica, self.get_kind,
                                                 payload))["version"]
                    for read_floor in self._read_floor_hooks:
                        version = read_floor(ctx, op, replica, version)
                    for after_read in self._after_read_hooks:
                        after_read(ctx, op, version)
                self._observe(result, key, version)
            elif kind == WRITE:
                op = resolve_derived(transaction, op, result)
                if write_layer is not None:
                    write_layer.buffer_write(ctx, op)
                    continue
                key = op.key  # Read Uncommitted: applied at once
                replica = self._pick_replica(key)
                version = Version(key, op.value,
                                  self._txn_timestamp(ctx, refresh=True),
                                  transaction.txn_id)
                yield self._issue(result, replica, self.put_kind,
                                  {"version": version}, VALUE_BYTES)
                ctx.write_targets[key] = replica
                ctx.written_versions[key] = version
            else:
                yield from self._scan_home_cluster(op, result)
        if write_layer is not None:
            flushed_at = env._now
            yield from write_layer.flush(ctx)
            if trace is not None:
                span = tracer.start_span(
                    f"layer:{write_layer.token}.flush", "layer",
                    trace, self.node.name, flushed_at)
                span.attrs["writes"] = len(ctx.write_buffer)
                tracer.finish(span, env.now)
        # Read-only transactions still get a commit timestamp (post-reads).
        self._txn_timestamp(ctx)
        for hook in self._finalize_hooks:
            hook(ctx)
