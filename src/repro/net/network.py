"""The message bus: typed messages, RPC, partitions, and timeouts.

Servers and clients register a handler with the network under a unique site
name.  ``send`` is fire-and-forget with a sampled one-way latency; ``rpc``
pairs a request with a response future and fails it with
:class:`~repro.errors.RequestTimeout` if no reply arrives before the deadline.
Partitioned messages are silently dropped, which is what a real WAN partition
looks like to the sender.

A server sends a reply when service starts, ``after_ms`` = the service time
ahead of it: the multiplier is drawn, the latency factor read and partition
connectivity checked then, not at completion.  A server that crashes in
service ``recall``s the reply, and puts it back if it recovers in time.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappush
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import NetworkError, OverloadedError, RequestTimeout
from repro.net.latency import LatencyModel
from repro.net.partitions import PartitionManager
from repro.net.topology import Topology
from repro.sim import Environment, Future, RandomStreams
from repro.sim.events import PENDING

#: ``Future`` without its ``__init__`` frame: ``rpc`` sets the four slots.
_new_future = object.__new__
#: Default RPC deadline.  Long enough that it only fires when a partition (or
#: an overloaded server) genuinely prevents a response.
DEFAULT_RPC_TIMEOUT_MS = 10_000.0


class _OverloadedReply:
    """Sentinel reply payload: the server shed the request at admission.

    Delivered like any reply (it still pays a network round trip), but
    ``_deliver`` recognizes the singleton by identity and fails the
    pending RPC with :class:`~repro.errors.OverloadedError` instead of
    resolving it — one central interception point, so every protocol
    client treats a shed request as an external abort for free.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<overloaded>"


OVERLOADED_REPLY = _OverloadedReply()


@dataclass(slots=True)
class Message:
    """One message on the wire."""

    src: str
    dst: str
    kind: str
    payload: Any = None
    msg_id: int = 0
    reply_to: Optional[int] = None
    #: Trace context propagated with the message (None when tracing is off).
    trace: Any = None
    #: The bytes the sender declared (``send``'s ``size_bytes``): counted in
    #: ``NetworkStats.bytes_sent``, charged and installed by the receiver.
    size_bytes: int = 0


@dataclass(slots=True)
class NetworkStats:
    """Counters used by tests and by the benchmark reports."""

    sent: int = 0
    delivered: int = 0
    dropped_partition: int = 0
    rpc_timeouts: int = 0
    bytes_sent: int = 0
    per_kind: Dict[str, int] = field(default_factory=dict)


class Network:
    """Connects registered handlers through the latency model."""

    def __init__(self, env: Environment, topology: Topology,
                 latency: LatencyModel, streams: Optional[RandomStreams] = None,
                 partitions: Optional[PartitionManager] = None):
        self.env = env
        self.topology = topology
        self.latency = latency
        self.partitions = partitions or PartitionManager()
        #: Multiplier on every sampled one-way latency; chaos campaigns raise
        #: it during degraded-latency epochs and restore it to 1.0 afterwards.
        self.latency_factor = 1.0
        self.stats = NetworkStats()
        #: Span sink (a :class:`repro.obs.trace.Tracer`) when tracing is on.
        #: The message path never tests it: a message or process carries a
        #: trace context only when traced code put one there.
        self.tracer = None
        #: Metrics sink (a :class:`repro.obs.metrics.MetricsRegistry`) when
        #: ``Scenario.metrics`` is on; components resolve their series from
        #: it at construction, so it is installed before they are built.
        self.metrics = None
        #: msg_id -> open RPC span, finished on reply or timeout (a server
        #: that finds its request's span here writes its side onto it).
        self._rpc_spans: Dict[int, Any] = {}
        #: A message's delay: the next multiplier of the ``"network"`` random
        #: stream times half the pair's mean RTT (placements never move).
        self._multipliers = latency.multipliers(
            (streams or RandomStreams(0)).stream("network"))
        self._half_rtt: Dict[Tuple[str, str], float] = {}
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        self._pending_rpcs: Dict[int, Future] = {}
        self._msg_ids = itertools.count(1)
        # Timeout wheels: one FIFO per distinct timeout duration.  RPCs with
        # the same timeout expire in issue order, so each wheel stays sorted
        # by deadline and needs one armed sweeper event, not one per RPC.
        # Answered entries leave its front at a sweep (so it re-arms only for
        # an outstanding RPC: armed exactly while the wheel is not empty) and
        # before the next RPC of its class is appended.
        self._timeout_wheels: Dict[float, deque] = {}

    # -- registration -------------------------------------------------------
    def register(self, site: str, handler: Callable[[Message], None]) -> None:
        """Attach ``handler`` to ``site``; messages to the site invoke it."""
        if site not in self.topology.sites:
            raise NetworkError(f"cannot register unknown site {site!r}")
        if site in self._handlers:
            raise NetworkError(f"site {site!r} already has a handler")
        self._handlers[site] = handler

    def unregister(self, site: str) -> None:
        """Detach the handler for ``site`` (simulates a crashed process)."""
        self._handlers.pop(site, None)

    # -- messaging ------------------------------------------------------------
    def send(self, src: str, dst: str, kind: str, payload: Any = None,
             reply_to: Optional[int] = None, size_bytes: int = 0,
             trace: Any = None, after_ms: float = 0.0) -> int:
        """Send a one-way message that leaves ``after_ms`` from now; returns
        its message id, negated when a partition dropped the message."""
        msg_id = next(self._msg_ids)
        stats = self.stats
        stats.sent += 1
        stats.bytes_sent += size_bytes
        per_kind = stats.per_kind
        try:
            per_kind[kind] += 1
        except KeyError:
            per_kind[kind] = 1
        partitions, pair = self.partitions, (src, dst)
        if not (partitions.idle or partitions.verdicts.get(pair)
                or partitions.connected(src, dst)):
            # A dropped message is never observable, so it is never built.
            stats.dropped_partition += 1
            return -msg_id
        # Positional (field order): the generated ``__init__`` matches
        # keywords at twice the cost, on every message of every run.  Explicit
        # context (RPC spans, anti-entropy) wins; otherwise the ambient
        # context of whatever process/handler is sending.  Both are None
        # whenever tracing is off.
        env = self.env
        message = Message(
            src, dst, kind, payload, msg_id, reply_to,
            trace if trace is not None else env.current_trace, size_bytes)
        try:
            half_rtt = self._half_rtt[pair]
        except KeyError:
            half_rtt = self._half_rtt[pair] = self.latency.mean_rtt(src, dst) * 0.5
        delay = half_rtt * next(self._multipliers) * self.latency_factor
        if delay > 0.0 or after_ms > 0.0:
            # Environment.schedule, in place: one heap push per message.
            seq = env._next_seq
            env._next_seq = seq + 1
            heappush(env._queue, (env._now + after_ms + delay, seq,
                                  self._deliver, (message,)))
        else:
            env.schedule(delay, self._deliver, message)
        return msg_id

    def recall(self, msg_id: int, kind: str, stash: Dict[int, tuple],
               undo: bool = False) -> None:
        """Take back the reply ``msg_id`` to a ``kind`` request (its server
        crashed in service): no count, and its delivery event waits in
        ``stash`` for ``undo`` to put it back exactly where it was (a linear
        scan: crashes are rare)."""
        sign = 1 if undo else -1
        stats, queue, kind = self.stats, self.env._queue, kind + ".reply"
        stats.sent += sign
        stats.dropped_partition += sign * (msg_id < 0)
        stats.per_kind[kind] = stats.per_kind.get(kind, 0) + sign
        if not stats.per_kind[kind]:
            del stats.per_kind[kind]
        if undo:
            if msg_id in stash:
                heappush(queue, stash.pop(msg_id))
            return
        for index, entry in enumerate(queue):
            if entry[2] == self._deliver and entry[3][0].msg_id == msg_id:
                stash[msg_id] = queue.pop(index)
                heapify(queue)
                return

    # -- degraded-latency epochs ------------------------------------------------
    def degrade(self, factor: float) -> None:
        """Scale every subsequent message latency by ``factor`` (>= 1 slows)."""
        if factor <= 0:
            raise NetworkError(f"latency factor must be positive, got {factor!r}")
        self.latency_factor = float(factor)

    def restore(self) -> None:
        """End a degraded-latency epoch."""
        self.latency_factor = 1.0

    def _deliver(self, message: Message) -> None:
        handler = self._handlers.get(message.dst)
        if handler is None:
            # Destination crashed or never registered: the message vanishes,
            # exactly as a TCP RST/timeout looks to the application.
            return
        self.stats.delivered += 1
        reply_to = message.reply_to
        if reply_to is not None:
            pending = self._pending_rpcs.pop(reply_to, None)
            if pending is not None and pending._value is PENDING:
                payload = message.payload
                if self._rpc_spans:
                    span = self._rpc_spans.pop(reply_to, None)
                    if span is not None:
                        span.end_ms = self.env._now
                        if payload is OVERLOADED_REPLY:
                            span.status = "overloaded"
                if payload is OVERLOADED_REPLY:
                    pending._failed = True
                    payload = OverloadedError(
                        f"server {message.src} shed "
                        f"{message.kind.removesuffix('.reply')!r} (overloaded)")
                # Future.succeed, but the waiters run here (a top-level
                # event: no caller's frame sits under them), not as events.
                pending._value = payload
                callbacks = pending._callbacks
                for callback in callbacks:
                    callback(pending)
                callbacks.clear()
            return
        handler(message)

    # -- RPC ---------------------------------------------------------------------
    def rpc(self, src: str, dst: str, kind: str, payload: Any = None,
            timeout_ms: float = DEFAULT_RPC_TIMEOUT_MS,
            size_bytes: int = 0) -> Future:
        """Send a request and return a future for the matching response."""
        env = self.env
        response = _new_future(Future)
        response.env, response._value, response._failed, response._callbacks = (
            env, PENDING, False, [])
        parent = env.current_trace
        if parent is not None:  # set by traced code only: a tracer is installed
            tracer = self.tracer
            span = tracer.start_span(tracer.rpc_names[kind], "rpc", parent, src, env._now)
            span.dst = dst
            msg_id = self.send(src, dst, kind, payload, None, size_bytes, span)
            self._rpc_spans[msg_id] = span
        else:
            msg_id = self.send(src, dst, kind, payload, None, size_bytes)
        self._pending_rpcs[msg_id] = response
        wheel = self._timeout_wheels.get(timeout_ms)
        if wheel is None:
            wheel = self._timeout_wheels[timeout_ms] = deque()
        if not wheel:
            env.schedule(timeout_ms, self._sweep_timeouts, timeout_ms)
        while wheel and wheel[0][1] not in self._pending_rpcs:
            wheel.popleft()
        wheel.append((env._now + timeout_ms, msg_id, src, dst, kind))
        return response

    def _sweep_timeouts(self, timeout_ms: float) -> None:
        """Expire every RPC of one timeout class whose deadline has passed."""
        wheel = self._timeout_wheels[timeout_ms]
        now = self.env.now
        pending_rpcs = self._pending_rpcs
        while wheel and (wheel[0][0] <= now or wheel[0][1] not in pending_rpcs):
            _deadline, msg_id, src, dst, kind = wheel.popleft()
            pending = pending_rpcs.pop(msg_id, None)
            if pending is not None and pending._value is PENDING:
                self.stats.rpc_timeouts += 1
                span = self._rpc_spans.pop(msg_id, None)
                if span is not None:
                    span.end_ms = now
                    span.status = "timeout"
                pending.fail(RequestTimeout(f"rpc {kind!r} from {src} to {dst} "
                                            f"timed out after {timeout_ms} ms"))
        if wheel:
            self.env.schedule(wheel[0][0] - now, self._sweep_timeouts, timeout_ms)

    def reply(self, request: Message, payload: Any = None,
              after_ms: float = 0.0) -> int:
        """Send the response for ``request`` back to its sender (a rejection, a
        lock grant; ``ServerNode._serve`` sends a served request's via ``send``)."""
        return self.send(request.dst, request.src, f"{request.kind}.reply",
                         payload, request.msg_id, 0, None, after_ms)
