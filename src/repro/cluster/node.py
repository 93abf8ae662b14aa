"""The server node: request queue, worker pool, storage, and dispatch.

Each simulated server mirrors one m1.xlarge instance from the paper's
deployment.  Requests arrive as network messages, wait in a FIFO queue, and
are processed by a bounded pool of workers; every request's service time is
the storage cost (LSM + WAL) plus a fixed CPU overhead plus a per-KB cost on
the size its sender declared (``Message.size_bytes``).  The handler runs
when service starts and the reply is sent then, delivered one hop after the
service ends; a busy worker is its completion instant on a heap, so no event
marks a completion (one wake event hands queued requests to freed workers),
and a crash recalls the replies of unfinished requests.  This queueing model
is what produces the paper's throughput behaviour: adding closed-loop clients
increases throughput until the servers saturate, after which latency grows
linearly with the number of clients (Figure 3) and background work such as
anti-entropy or MAV's second write reduces the ceiling.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ReproError
from repro.net.network import Message, Network, OVERLOADED_REPLY
from repro.overload.admission import FOREGROUND_KINDS
from repro.sim import Environment
from repro.storage.lsm import LSMStore
from repro.storage.wal import WriteAheadLog


#: Service cost per kilobyte of a request's declared size (``Message.size_bytes``),
#: in milliseconds.
PER_KB_MS = 0.01


@dataclass(slots=True)
class ServiceCostModel:
    """Per-request server-side costs (milliseconds)."""

    #: Fixed CPU cost per request (RPC decode, dispatch, encode).
    request_overhead_ms: float = 0.12
    #: Number of requests a server can process concurrently (worker threads).
    concurrency: int = 4

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ReproError(
                f"ServiceCostModel.concurrency must be >= 1, got "
                f"{self.concurrency}: with no worker every request queues forever")


@dataclass(slots=True)
class ServerStats:
    """Counters exposed to tests and benchmark reports."""

    requests: int = 0
    replies: int = 0
    busy_ms: float = 0.0
    queue_wait_ms: float = 0.0
    max_queue_depth: int = 0
    #: Foreground requests shed by admission control (rejected or evicted at
    #: the bound).  0 unless the server was built with a ``max_queue_depth``.
    rejected: int = 0
    per_kind: Dict[str, int] = field(default_factory=dict)


class _QueueSeries(NamedTuple):
    """One server's queue series, resolved once from the metrics registry."""

    depth: object
    wait: object


#: A handler receives the request message and returns ``(reply_payload,
#: extra_cost_ms)``.  The extra cost is added to the request's service time,
#: which the reply waits out before it leaves (e.g. a synchronous WAL flush),
#: as is the per-KB cost of the size the sender declared on the message.
Handler = Callable[[Message], Tuple[object, float]]


class ServerNode:
    """One database server: storage plus a queued request processor."""

    def __init__(self, env: Environment, network: Network, name: str,
                 cost_model: Optional[ServiceCostModel] = None,
                 keep_versions: Optional[int] = None,
                 max_queue_depth: Optional[int] = None):
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ReproError(
                f"max_queue_depth must be >= 1, got {max_queue_depth!r}")
        self.env = env
        self.network = network
        self.name = name
        self.cost = cost_model or ServiceCostModel()
        #: The admission bound on queued foreground requests (None = the
        #: historical unbounded FIFO); past half of it, service is LIFO.
        self.max_queue_depth = max_queue_depth
        self._lifo_depth = None if max_queue_depth is None else max_queue_depth // 2
        self.store = LSMStore(keep_versions=keep_versions)
        # Server WAL records only matter for replay/debugging; bound their
        # retention so every replica's memory stays flat over long runs.
        self.wal = WriteAheadLog(max_records=1024)
        self.stats = ServerStats()
        self.alive = True
        self._handlers: Dict[str, Handler] = {}
        self._reply_kinds: Dict[str, str] = {}  # kind -> "<kind>.reply"
        #: ``(message, enqueued at, queue depth found)`` per waiting request.
        self._queue: Deque[Tuple[Message, float, int]] = deque()
        #: Busy workers: ``(completion instant, seq, reply id or 0, kind)``, a
        #: heap; ``seq`` is drawn from the kernel's counter at service start,
        #: placing the completion in the event order like a scheduled event.
        self._workers: List[Tuple[float, int, int, str]] = []
        self._waking = False  # a wake is armed (while requests are queued)
        self._recalled: Dict[int, tuple] = {}  # a crash's replies, by id
        # The registry must be installed on the network before servers
        # exist: the probe is resolved here, None in the common case, and
        # the two scalars are read from ``stats`` when the registry exports.
        metrics, stats = network.metrics, self.stats
        self._probe = None
        if metrics is not None:
            self._probe = _QueueSeries(
                metrics.histogram("server_queue_depth", node=name),
                metrics.histogram("server_queue_wait_ms", node=name))
            metrics.collect_gauge("server_queue_depth_max",
                                  lambda: stats.max_queue_depth, node=name)
            metrics.collect_counter("server_sheds_total",
                                    lambda: stats.rejected, node=name)
        network.register(name, self._on_message)

    # -- handler registration -------------------------------------------------
    def register_handler(self, kind: str, handler: Handler) -> None:
        """Route messages of ``kind`` to ``handler``."""
        if kind in self._handlers:
            raise ReproError(f"server {self.name}: duplicate handler for {kind!r}")
        self._handlers[kind] = handler
        self._reply_kinds[kind] = kind + ".reply"

    # -- failure injection ------------------------------------------------------
    def crash(self) -> None:
        """Stop serving requests (messages to this server vanish)."""
        if self.alive:
            self.alive = False
            self.network.unregister(self.name)
            self._recall_replies(undo=False)

    def recover(self) -> None:
        """Come back online with the existing storage state."""
        if not self.alive:
            self.alive = True
            self.network.register(self.name, self._on_message)
            self._recall_replies(undo=True)
            self._recalled.clear()  # the rest ended while the server was down

    def _recall_replies(self, undo: bool) -> None:
        """Recall (or, on recovery, put back) the replies still in service."""
        now = (self.env._now, self.env._seq)
        for done_at, seq, reply_id, kind in self._workers:
            if reply_id and (done_at, seq) > now:
                self.network.recall(reply_id, kind, self._recalled, undo)
                self.stats.replies += 1 if undo else -1

    def _arm_wake(self) -> None:
        """Wake at the earliest completion, in its place in the event order."""
        self._waking = True
        heappush(self.env._queue, (*self._workers[0][:2], self._wake, ()))

    # -- request processing -------------------------------------------------------
    def _on_message(self, message: Message) -> None:
        if not self.alive:
            return
        stats = self.stats
        stats.requests += 1
        per_kind = stats.per_kind
        kind = message.kind
        try:
            per_kind[kind] += 1
        except KeyError:
            per_kind[kind] = 1
        queue = self._queue
        bound = self.max_queue_depth
        if (bound is not None and len(queue) >= bound
                and kind in FOREGROUND_KINDS):
            # Evict the oldest sheddable request instead of the newcomer:
            # its client has waited longest and is the most likely to have
            # already given up.  Background messages (anti-entropy,
            # replication) are never evicted.
            if not self._evict_oldest_sheddable():
                self._reject(message, "queue-full")
                return
        found = len(queue)
        now = self.env._now
        probe = self._probe
        if probe is not None:
            probe.depth.observe(now, found + 1)
        if found >= stats.max_queue_depth:
            stats.max_queue_depth = found + 1
        workers = self._workers  # free those the running event is past
        while workers and workers[0] < (now, self.env._seq + 1):
            heappop(workers)
        if not queue and len(workers) < self.cost.concurrency:
            # A worker is idle and nothing is queued: served where it arrives,
            # at zero wait, which admission neither sheds nor reorders.
            self._serve(message, now, found)
        else:
            queue.append((message, now, found))
            if not self._waking:
                self._arm_wake()

    def _evict_oldest_sheddable(self) -> bool:
        """Shed the oldest sheddable queued request; False = none found."""
        queue = self._queue
        for index, (queued, _enqueued_at, _depth) in enumerate(queue):
            if queued.kind in FOREGROUND_KINDS:
                del queue[index]
                self._reject(queued, "evicted")
                return True
        return False

    def _reject(self, message: Message, reason: str) -> None:
        """Refuse ``message`` with an explicit overload rejection.

        Rejection is deliberately cheap — no worker is occupied and no
        service time accrues — because shedding that costs as much as
        serving defends nothing.  The reply still pays a network hop, so
        the client learns of the rejection one latency sample later.
        """
        self.stats.rejected += 1
        network = self.network
        if message.trace is not None:
            event = network.tracer.event("queue-reject", message.trace,
                                         self.name, self.env._now)
            event.attrs["kind"] = message.kind
            event.attrs["reason"] = reason
            event.attrs["queue_depth"] = len(self._queue)
        network.reply(message, OVERLOADED_REPLY)

    def _wake(self) -> None:
        """Hand queued requests to idle workers, newest-first past the LIFO
        depth; re-armed while any request is still queued."""
        self._waking = False
        queue, workers, env = self._queue, self._workers, self.env
        while workers and workers[0] < (env._now, env._seq + 1):  # past: free
            heappop(workers)
        concurrency = self.cost.concurrency
        lifo_depth = self._lifo_depth
        while len(workers) < concurrency and queue:
            if lifo_depth is not None and len(queue) > lifo_depth:
                # Overloaded: serve newest-first so fresh requests see low
                # latency while the backlog drains.
                message, enqueued_at, depth = queue.pop()
            else:
                message, enqueued_at, depth = queue.popleft()
            self._serve(message, enqueued_at, depth)
        if queue:
            self._arm_wake()

    def _serve(self, message: Message, enqueued_at: float, depth: int) -> None:
        """Occupy a worker with ``message``: run its handler and send the reply
        now, through ``Network.send`` under its registered reply kind, to leave
        when the service time ends.  The one dispatch body, queued or not."""
        env = self.env
        stats = self.stats
        cost = self.cost
        queue_wait = env._now - enqueued_at
        stats.queue_wait_ms += queue_wait
        probe = self._probe
        if probe is not None:
            probe.wait.observe(env._now, queue_wait)
        handler = self._handlers.get(message.kind)
        span = None
        if message.trace is not None and handler is not None:
            span = message.trace
            if self.network._rpc_spans.get(message.msg_id) is not span:
                # Not the request that opened its RPC span (a push sent while
                # serving, a timed-out RPC): a server span of its own.
                tracer = self.network.tracer
                span = tracer.start_span(tracer.server_names[message.kind],
                                         "server", span, self.name,
                                         enqueued_at)
            # The ambient context: what the handler sends chains under it.
            env.current_trace = span
        if handler is None:
            # Unknown request kinds get an error reply so clients fail
            # fast instead of timing out.
            reply_payload = {"error": f"no handler for {message.kind!r}"}
            reply_kind, service_ms = f"{message.kind}.reply", 0.0
        else:
            reply_kind = self._reply_kinds[message.kind]
            reply_payload, extra_cost = handler(message)
            service_ms = cost.request_overhead_ms + extra_cost
            size = message.size_bytes
            if size:
                service_ms += (size / 1024.0) * PER_KB_MS
        if span is not None:
            env.current_trace = None
            if span is message.trace:  # the RPC's span: the server side
                span.arrival_ms = enqueued_at
            else:  # queue wait plus the service the reply waits out
                span.end_ms = enqueued_at + queue_wait + service_ms
            span.queue_wait_ms = queue_wait
            span.service_ms = service_ms
            span.queue_depth = depth
        stats.busy_ms += service_ms
        reply_id = 0
        if reply_payload is not None:
            reply_id = self.network.send(message.dst, message.src, reply_kind,
                                         reply_payload, message.msg_id, 0,
                                         None, service_ms)
            if self.alive:
                stats.replies += 1
            else:  # crashed: the queue drains, the reply stays recalled
                self.network.recall(reply_id, message.kind, self._recalled)
        seq = env._next_seq
        env._next_seq = seq + 1
        heappush(self._workers, (env._now + service_ms, seq, reply_id, message.kind))

    # -- convenience ---------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def busy_workers(self) -> int:
        """Requests currently being served (the membership drain waits on it)."""
        now = (self.env._now, self.env._seq)
        return sum(entry[:2] > now for entry in self._workers)
