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
schedules — bursts deeper than the worker pool, every admission policy, a
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

from repro.cluster.node import ServerNode, ServiceCostModel
from repro.errors import OverloadedError
from repro.net.latency import FixedLatencyModel
from repro.net.network import Network
from repro.net.topology import Topology
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.overload.admission import ADMISSION_POLICIES, AdmissionConfig
from repro.sim import Environment

SHEDDABLE = frozenset({"fg"})


class CompleteEventNode(ServerNode):
    """The reference dispatcher: a busy count, append then pop in one fused
    loop, and a ``_complete`` event that replies when service ends."""

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
        admission = self.admission
        if (admission is not None
                and len(queue) >= admission.max_queue_depth
                and kind in admission.sheddable_kinds):
            if admission.policy == "adaptive-lifo":
                if not self._evict_oldest_sheddable(admission):
                    self._reject(message, "queue-full")
                    return
            else:
                self._reject(message, "queue-full")
                return
        found = len(queue)
        queue.append((message, self.env.now, found))
        if self._probe is not None:
            self._probe.depth.observe(self.env.now, found + 1)
        stats.max_queue_depth = max(stats.max_queue_depth, found + 1)
        if self.busy < self.cost.concurrency:
            self._start_workers()

    def _start_workers(self):
        queue, stats, cost, env = self._queue, self.stats, self.cost, self.env
        admission = self.admission
        while self.busy < cost.concurrency and queue:
            if (admission is not None and admission.policy == "adaptive-lifo"
                    and len(queue) > admission.lifo_depth):
                message, enqueued_at, depth = queue.pop()
            else:
                message, enqueued_at, depth = queue.popleft()
            if (admission is not None and admission.policy == "codel"
                    and env.now - enqueued_at > admission.codel_target_ms
                    and message.kind in admission.sheddable_kinds):
                self._reject(message, "stale")
                continue
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
                size = message.payload.get("size_bytes", 0)
                if size:
                    service_ms += (size / 1024.0) * cost.per_kb_ms
            if span is not None:
                env.current_trace = None
                if span is message.trace:
                    span.attrs["arrival_ms"] = enqueued_at
                else:
                    span.end_ms = enqueued_at + queue_wait + service_ms
                span.attrs["queue_wait_ms"] = queue_wait
                span.attrs["service_ms"] = service_ms
                span.attrs["queue_depth"] = depth
            stats.busy_ms += service_ms
            env.schedule(service_ms, self._complete, message, reply_payload)

    def _complete(self, message, reply_payload):
        self.busy -= 1
        if self.alive and reply_payload is not None:
            self.network.reply(message, reply_payload)
            self.stats.replies += 1
        if self._queue:
            self._start_workers()


def _run(node_class, arrivals, concurrency, admission, crash_at, recover_at):
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
                        admission=admission)

    def handle(message):
        payload = message.payload
        reply = None if payload["silent"] else {"echo": payload["index"]}
        return reply, payload["cost"]

    server.register_handler("fg", handle)
    server.register_handler("bg", handle)
    # The events each dispatcher adds: the reference's ``_complete`` per
    # served request, the server's wakes.
    wakes = [0]
    if node_class is ServerNode:
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
            "index": index, "cost": cost, "size_bytes": size,
            "silent": silent}, timeout_ms=50.0)
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
    spans = [span.as_dict() for span in tracer.spans]
    dispatch_events = wakes[0] if node_class is ServerNode else server.served
    return (replies, server.stats, network.stats,
            network.metrics.timeseries(), spans, env.events_executed,
            dispatch_events)


arrival = st.tuples(
    st.sampled_from([0.0, 0.0, 0.0, 0.05, 0.4, 3.0]),       # gap: bursts mostly
    st.sampled_from(["fg", "fg", "fg", "bg", "unknown"]),
    st.sampled_from([0.0, 0.3, 2.0, 8.0]),                   # handler cost, ms
    st.sampled_from([0, 1024, 8192]),                        # payload bytes
    st.booleans())                                           # fire-and-forget
admissions = st.one_of(
    st.none(),
    st.builds(AdmissionConfig,
              max_queue_depth=st.integers(1, 5),
              policy=st.sampled_from(ADMISSION_POLICIES),
              lifo_depth=st.one_of(st.none(), st.integers(0, 3)),
              codel_target_ms=st.sampled_from([0.2, 1.0, 5.0]),
              sheddable_kinds=st.just(SHEDDABLE)))


@settings(max_examples=150, deadline=None)
@given(arrivals=st.lists(arrival, min_size=1, max_size=40),
       concurrency=st.integers(1, 3), admission=admissions,
       crash_at=st.one_of(st.none(), st.sampled_from([0.3, 1.0, 4.0])),
       recover_at=st.one_of(st.none(), st.sampled_from([0.5, 6.0])))
# An eviction that empties a one-deep queue appends into the queue whose wake
# is still armed: arming a second one would double every wake after it.
@example(arrivals=[(0.0, "fg", 2.0, 0, False)] * 4
         + [(0.5, "fg", 2.0, 0, False)] * 3,
         concurrency=1, admission=AdmissionConfig(
             max_queue_depth=1, policy="adaptive-lifo",
             sheddable_kinds=SHEDDABLE),
         crash_at=None, recover_at=None)
# A queue deeper than the RPC timeout: the last three requests are served
# after their RPCs timed out, so they get server spans.
@example(arrivals=[(0.0, "fg", 8.0, 0, False)] * 10, concurrency=1,
         admission=None, crash_at=None, recover_at=None)
def test_replying_at_service_start_matches_the_complete_event_dispatcher(
        arrivals, concurrency, admission, crash_at, recover_at):
    replies, *observed, events, wakes = _run(
        ServerNode, arrivals, concurrency, admission, crash_at, recover_at)
    reference_replies, *reference, reference_events, served = _run(
        CompleteEventNode, arrivals, concurrency, admission, crash_at,
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
    """A burst through each policy sheds, queues and serves on arrival —
    otherwise the property above compares two idle servers."""
    burst = [(0.0, "fg", 2.0, 1024, False)] * 12 + [(6.0, "fg", 0.3, 0, False)]
    for policy in ADMISSION_POLICIES:
        admission = AdmissionConfig(max_queue_depth=3, policy=policy,
                                    codel_target_ms=3.0,
                                    sheddable_kinds=SHEDDABLE)
        replies, stats, *_ = _run(ServerNode, burst, 2, admission, None, None)
        assert stats.rejected > 0 and stats.queue_wait_ms > 0.0
        assert stats.max_queue_depth == 3 and len(replies) == len(burst)
        assert replies[-1][2] != "shed"  # the late, lone request: zero wait


def test_a_request_writes_its_server_side_onto_its_rpc_span():
    """Served in time, the request's RPC span carries where and how long it
    waited and was served; served after its RPC timed out, the work gets a
    ``server`` span under the closed RPC span instead."""
    late = [(0.0, "fg", 8.0, 0, False)] * 10
    *_, spans, _, _ = _run(ServerNode, late, 1, None, None, None)
    by_id = {span["span_id"]: span for span in spans}
    rpcs = [span for span in spans if span["kind"] == "rpc"]
    servers = [span for span in spans if span["kind"] == "server"]
    assert len(rpcs) == 10 and len(servers) == 3
    assert all(by_id[span["parent_id"]]["status"] == "timeout"
               for span in servers)
    served = [span for span in rpcs if "arrival_ms" in span["attrs"]]
    assert len(served) == 7
    for index, span in enumerate(served):
        attrs = span["attrs"]
        assert attrs["arrival_ms"] == pytest.approx(span["start_ms"] + 0.25)
        assert attrs["queue_wait_ms"] == pytest.approx(index * 8.12)
        assert attrs["service_ms"] == pytest.approx(8.12)
        assert attrs["queue_depth"] == max(0, index - 1)  # queued ahead
