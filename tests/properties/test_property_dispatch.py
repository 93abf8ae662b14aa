"""Differential property: a server that replies when service starts is the
dispatcher that replied when service ended, two kernel events fewer per
request.

``ServerNode`` runs a request's handler when its service starts and sends
the reply then, delivered one hop after the service time ends; a worker is
that completion instant on a heap, and one wake event, armed only while
requests are queued, hands them to the freed workers.  The reference below is
the dispatcher as it stood before that, self-contained: its own busy-worker
count, every request appended to the queue and popped again by a fused loop,
and one ``_complete`` event per served request that sends the reply if the
server is alive and starts the next queued request.  Random arrival
schedules — bursts deeper than the worker pool, with and without an
admission bound (the reference spells adaptive LIFO's shedding out itself,
so a wrong eviction or an uncounted rejection cannot hide on both sides), a
crash with requests in service and queued, a recovery before or after their
completion instants — must produce the same replies at the same instants,
the same ``ServerStats`` and ``NetworkStats``, the same queue-probe
observations and the same spans from both (a request that opened its RPC
span writes its server side onto it; one served after its RPC timed out
gets a ``server`` span); and the server executes
exactly one event fewer per request the reference served (its
``_complete``), plus one per wake.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.node import PER_KB_MS, ServerNode, ServiceCostModel
from repro.errors import OverloadedError
from repro.net.latency import FixedLatencyModel
from repro.net.network import OVERLOADED_REPLY, Network
from repro.net.topology import Topology
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.overload.admission import FOREGROUND_KINDS
from repro.sim import Environment

#: A foreground (sheddable) request kind and a background one.
FG, BG = "ru.get", "ae.push"


class CompleteEventNode(ServerNode):
    """The reference dispatcher: a busy count, append then pop in one fused
    loop, and a ``_complete`` event that replies when service ends.  At the
    bound a sheddable arrival evicts the oldest queued sheddable request, or
    is refused itself when none is queued; a refusal is counted and answered
    with the overloaded reply (and annotated on a traced request)."""

    busy = 0
    served = 0

    def crash(self):
        self.alive = False
        self.network.unregister(self.name)

    def recover(self):
        if not self.alive:
            self.alive = True
            self.network.register(self.name, self._on_message)

    @property
    def busy_workers(self):
        return self.busy

    def _on_message(self, message):
        if not self.alive:
            return
        stats = self.stats
        stats.requests += 1
        kind = message.kind
        stats.per_kind[kind] = stats.per_kind.get(kind, 0) + 1
        queue = self._queue
        bound = self.max_queue_depth
        if (bound is not None and len(queue) >= bound
                and kind in FOREGROUND_KINDS):
            oldest = next((entry for entry in queue
                           if entry[0].kind in FOREGROUND_KINDS), None)
            if oldest is None:
                self._refuse(message, "queue-full")
                return
            queue.remove(oldest)
            self._refuse(oldest[0], "evicted")
        found = len(queue)
        queue.append((message, self.env.now, found))
        if self._probe is not None:
            self._probe.depth.observe(self.env.now, found + 1)
        stats.max_queue_depth = max(stats.max_queue_depth, found + 1)
        if self.busy < self.cost.concurrency:
            self._start_workers()

    def _refuse(self, message, reason):
        self.stats.rejected += 1
        if message.trace is not None:
            event = self.network.tracer.event("queue-reject", message.trace,
                                              self.name, self.env.now)
            event.attrs.update(kind=message.kind, reason=reason,
                               queue_depth=len(self._queue))
        self.network.reply(message, OVERLOADED_REPLY)

    def _start_workers(self):
        queue, stats, cost, env = self._queue, self.stats, self.cost, self.env
        bound = self.max_queue_depth
        while self.busy < cost.concurrency and queue:
            if bound is not None and len(queue) > bound // 2:
                message, enqueued_at, depth = queue.pop()
            else:
                message, enqueued_at, depth = queue.popleft()
            queue_wait = env.now - enqueued_at
            stats.queue_wait_ms += queue_wait
            if self._probe is not None:
                self._probe.wait.observe(env.now, queue_wait)
            self.busy += 1
            self.served += 1
            handler = self._handlers.get(message.kind)
            span = None
            if message.trace is not None and handler is not None:
                span = message.trace
                if self.network._rpc_spans.get(message.msg_id) is not span:
                    tracer = self.network.tracer
                    span = tracer.start_span(
                        tracer.server_names[message.kind], "server",
                        message.trace, self.name, enqueued_at)
                env.current_trace = span
            if handler is None:
                reply_payload = {"error": f"no handler for {message.kind!r}"}
                service_ms = 0.0
            else:
                reply_payload, extra_cost = handler(message)
                service_ms = cost.request_overhead_ms + extra_cost
                size = message.size_bytes
                if size:
                    service_ms += (size / 1024.0) * PER_KB_MS
            if span is not None:
                env.current_trace = None
                if span is message.trace:
                    span.arrival_ms = enqueued_at
                else:
                    span.end_ms = enqueued_at + queue_wait + service_ms
                span.queue_wait_ms = queue_wait
                span.service_ms = service_ms
                span.queue_depth = depth
            stats.busy_ms += service_ms
            env.schedule(service_ms, self._complete, message, reply_payload)

    def _complete(self, message, reply_payload):
        self.busy -= 1
        if self.alive and reply_payload is not None:
            self.network.reply(message, reply_payload)
            self.stats.replies += 1
        if self._queue:
            self._start_workers()


def _run(node_class, arrivals, concurrency, bound, crash_at, recover_at):
    env = Environment()
    topology = Topology()
    topology.add_site("client", region="VA")
    topology.add_site("server", region="VA")
    network = Network(env, topology, FixedLatencyModel(0.25))
    network.metrics = MetricsRegistry()
    network.tracer = tracer = Tracer()
    network.register("client", lambda message: None)
    server = node_class(env, network, "server",
                        cost_model=ServiceCostModel(concurrency=concurrency),
                        max_queue_depth=bound)

    def handle(message):
        payload = message.payload
        reply = None if payload["silent"] else {"echo": payload["index"]}
        return reply, payload["cost"]

    server.register_handler(FG, handle)
    server.register_handler(BG, handle)
    # The events each dispatcher adds: the reference's ``_complete`` per
    # served request, the server's wakes.
    wakes = [0]
    if not issubclass(node_class, CompleteEventNode):
        wake = server._wake

        def counted_wake():
            wakes[0] += 1
            wake()

        server._wake = counted_wake
    replies = []

    def fire(index, kind, cost, size, silent):
        root = tracer.start_span(f"request-{index}", "client", None, "client",
                                 env.now)
        env.current_trace = root
        future = network.rpc("client", "server", kind, {
            "index": index, "cost": cost, "silent": silent},
            timeout_ms=50.0, size_bytes=size)
        env.current_trace = None
        future.add_callback(lambda resolved: replies.append(
            (index, env.now,
             "shed" if isinstance(resolved.value, OverloadedError)
             else repr(resolved.value))))

    at = 0.0
    for index, (gap, kind, cost, size, silent) in enumerate(arrivals):
        at += gap
        env.schedule(at, fire, index, kind, cost, size, silent)
    if crash_at is not None:
        env.schedule(crash_at, server.crash)
        if recover_at is not None:
            env.schedule(crash_at + recover_at, server.recover)
    env.run()
    assert server.queue_depth == 0
    # A request served without a reply leaves no event at its completion:
    # move the clock past the last one before asking for the idle pool.
    env.run(until=env.now + 100.0)
    assert server.busy_workers == 0
    spans = [{**{slot: getattr(span, slot) for slot in span.__slots__},
              "attrs": dict(span.attrs or {}), "faults": list(span.faults)}
             for span in tracer.spans]
    dispatch_events = (server.served if isinstance(server, CompleteEventNode)
                       else wakes[0])
    return (replies, server.stats, network.stats,
            network.metrics.timeseries(), spans, env.events_executed,
            dispatch_events)


arrival = st.tuples(
    st.sampled_from([0.0, 0.0, 0.0, 0.05, 0.4, 3.0]),       # gap: bursts mostly
    st.sampled_from([FG, FG, FG, BG, "unknown"]),
    st.sampled_from([0.0, 0.3, 2.0, 8.0]),                   # handler cost, ms
    st.sampled_from([0, 1024, 8192]),                        # payload bytes
    st.booleans())                                           # fire-and-forget
bounds = st.one_of(st.none(), st.integers(1, 5))


@settings(max_examples=150, deadline=None)
@given(arrivals=st.lists(arrival, min_size=1, max_size=40),
       concurrency=st.integers(1, 3), bound=bounds,
       crash_at=st.one_of(st.none(), st.sampled_from([0.3, 1.0, 4.0])),
       recover_at=st.one_of(st.none(), st.sampled_from([0.5, 6.0])))
# An eviction that empties a one-deep queue appends into the queue whose wake
# is still armed: arming a second one would double every wake after it.
@example(arrivals=[(0.0, FG, 2.0, 0, False)] * 4
         + [(0.5, FG, 2.0, 0, False)] * 3,
         concurrency=1, bound=1, crash_at=None, recover_at=None)
# A full three-deep queue of sheddable requests: the arrival evicts the
# oldest of them, not the newest.
@example(arrivals=[(0.0, FG, 2.0, 0, False)] * 6, concurrency=1, bound=3,
         crash_at=None, recover_at=None)
# A queue deeper than the RPC timeout: the last three requests are served
# after their RPCs timed out, so they get server spans.
@example(arrivals=[(0.0, FG, 8.0, 0, False)] * 10, concurrency=1,
         bound=None, crash_at=None, recover_at=None)
def test_replying_at_service_start_matches_the_complete_event_dispatcher(
        arrivals, concurrency, bound, crash_at, recover_at):
    replies, *observed, events, wakes = _run(
        ServerNode, arrivals, concurrency, bound, crash_at, recover_at)
    reference_replies, *reference, reference_events, served = _run(
        CompleteEventNode, arrivals, concurrency, bound, crash_at,
        recover_at)
    # Every request's reply, with the same payload at the same instant (the
    # lists are in time order, so only replies sharing an instant can swap).
    # A reply takes its place in the event order when it is sent, at service
    # start rather than at its end, so two replies landing at one instant may
    # arrive in the other order.
    assert sorted(replies) == sorted(reference_replies)
    assert observed == reference
    assert wakes <= served
    assert events == reference_events - served + wakes


def test_the_schedules_reach_every_arm():
    """A burst through a bounded queue sheds, queues, serves newest-first
    and serves on arrival — otherwise the property above compares two idle
    servers."""
    burst = [(0.0, FG, 2.0, 1024, False)] * 12 + [(6.0, FG, 0.3, 0, False)]
    replies, stats, *_ = _run(ServerNode, burst, 2, 3, None, None)
    assert stats.rejected > 0 and stats.queue_wait_ms > 0.0
    assert stats.max_queue_depth == 3 and len(replies) == len(burst)
    served = [index for index, _, reply in sorted(replies, key=lambda r: r[1])
              if reply != "shed"]
    assert served[2:4] == [11, 10]  # past the LIFO depth: newest first
    assert replies[-1][2] != "shed"  # the late, lone request: zero wait


def test_a_request_writes_its_server_side_onto_its_rpc_span():
    """Served in time, the request's RPC span carries where and how long it
    waited and was served; served after its RPC timed out, the work gets a
    ``server`` span under the closed RPC span instead."""
    late = [(0.0, FG, 8.0, 0, False)] * 10
    *_, spans, _, _ = _run(ServerNode, late, 1, None, None, None)
    by_id = {span["span_id"]: span for span in spans}
    rpcs = [span for span in spans if span["kind"] == "rpc"]
    servers = [span for span in spans if span["kind"] == "server"]
    assert len(rpcs) == 10 and len(servers) == 3
    assert all(by_id[span["parent_id"]]["status"] == "timeout"
               for span in servers)
    served = [span for span in rpcs if span["arrival_ms"] is not None]
    assert len(served) == 7
    for index, span in enumerate(served):
        assert span["arrival_ms"] == pytest.approx(span["start_ms"] + 0.25)
        assert span["queue_wait_ms"] == pytest.approx(index * 8.12)
        assert span["service_ms"] == pytest.approx(8.12)
        assert span["queue_depth"] == max(0, index - 1)  # queued ahead


class EvictNewestNode(ServerNode):
    """A planted bug: at the bound, shed the newest queued sheddable
    request instead of the oldest."""

    def _evict_oldest_sheddable(self):
        queue = self._queue
        for index in reversed(range(len(queue))):
            queued = queue[index][0]
            if queued.kind in FOREGROUND_KINDS:
                del queue[index]
                self._reject(queued, "evicted")
                return True
        return False


class UncountedRejectNode(ServerNode):
    """A planted bug: a refusal is answered but not counted."""

    def _reject(self, message, reason):
        super()._reject(message, reason)
        self.stats.rejected -= 1


@pytest.mark.parametrize("mutant", [EvictNewestNode, UncountedRejectNode],
                         ids=["evicts-newest", "rejects-uncounted"])
def test_the_reference_does_not_share_a_shedding_bug(mutant):
    """The reference spells eviction and rejection out itself, so a server
    that gets either wrong differs from it on the full three-deep queue."""
    schedule = ([(0.0, FG, 2.0, 0, False)] * 6, 1, 3, None, None)
    replies, *observed, _, _ = _run(ServerNode, *schedule)
    reference_replies, *reference, _, _ = _run(CompleteEventNode, *schedule)
    assert sorted(replies) == sorted(reference_replies)
    assert observed == reference
    mutant_replies, *mutated, _, _ = _run(mutant, *schedule)
    assert (sorted(mutant_replies), mutated) != (sorted(reference_replies),
                                                 reference)
