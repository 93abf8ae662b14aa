"""Unit tests for the message bus and RPC layer."""

import pytest

from repro.errors import NetworkError, RequestTimeout
from repro.net.latency import FixedLatencyModel
from repro.net.network import Network
from repro.net.partitions import PartitionManager
from repro.net.topology import Topology
from repro.sim import Environment, RandomStreams


def make_network(latency_ms=1.0):
    env = Environment()
    topology = Topology()
    for name in ("a", "b", "c"):
        topology.add_site(name, region="VA")
    network = Network(env, topology, FixedLatencyModel(latency_ms),
                      streams=RandomStreams(0), partitions=PartitionManager())
    return env, network


class TestSend:
    def test_message_delivered_after_latency(self):
        env, network = make_network(latency_ms=3.0)
        received = []
        network.register("b", lambda msg: received.append((env.now, msg.payload)))
        network.send("a", "b", "hello", payload={"x": 1})
        env.run()
        assert received == [(3.0, {"x": 1})]
        assert network.stats.delivered == 1

    def test_unregistered_destination_drops_message(self):
        env, network = make_network()
        network.send("a", "c", "hello")
        env.run()
        assert network.stats.delivered == 0

    def test_register_requires_known_site(self):
        _env, network = make_network()
        with pytest.raises(NetworkError):
            network.register("ghost", lambda msg: None)

    def test_double_register_rejected(self):
        _env, network = make_network()
        network.register("a", lambda msg: None)
        with pytest.raises(NetworkError):
            network.register("a", lambda msg: None)

    def test_partition_drops_messages(self):
        env, network = make_network()
        received = []
        network.register("b", lambda msg: received.append(msg))
        network.partitions.partition([["a"], ["b"]])
        network.send("a", "b", "hello")
        env.run()
        assert received == []
        assert network.stats.dropped_partition == 1

    def test_per_kind_counters(self):
        env, network = make_network()
        network.register("b", lambda msg: None)
        network.send("a", "b", "put")
        network.send("a", "b", "put")
        network.send("a", "b", "get")
        env.run()
        assert network.stats.per_kind == {"put": 2, "get": 1}


class TestRPC:
    def test_request_reply_round_trip(self):
        env, network = make_network(latency_ms=2.0)

        def server(message):
            network.reply(message, {"answer": message.payload["n"] * 2})

        network.register("b", server)
        network.register("a", lambda msg: None)
        future = network.rpc("a", "b", "double", {"n": 21})
        result = env.run_until_complete(future)
        assert result == {"answer": 42}
        assert env.now == pytest.approx(4.0)

    def test_rpc_timeout_when_partitioned(self):
        env, network = make_network()
        network.register("b", lambda msg: None)
        network.register("a", lambda msg: None)
        network.partitions.partition([["a"], ["b"]])
        future = network.rpc("a", "b", "ping", timeout_ms=50.0)
        with pytest.raises(RequestTimeout):
            env.run_until_complete(future)
        assert env.now == pytest.approx(50.0)
        assert network.stats.rpc_timeouts == 1

    def test_rpc_timeout_when_server_silent(self):
        env, network = make_network()
        network.register("b", lambda msg: None)  # never replies
        network.register("a", lambda msg: None)
        future = network.rpc("a", "b", "ping", timeout_ms=20.0)
        with pytest.raises(RequestTimeout):
            env.run_until_complete(future)

    def test_sweeper_wakes_only_for_an_rpc_still_outstanding(self):
        """Answered RPCs leave the wheel when their class issues its next
        RPC; one issued among them and never answered fails at exactly its
        deadline."""
        env, network = make_network(latency_ms=1.0)

        def server(message):
            if message.kind == "ping":
                network.reply(message, "pong")

        network.register("b", server)
        network.register("a", lambda msg: None)
        issued = []
        for at_ms in range(0, 100, 10):
            kind = "silent" if at_ms == 50 else "ping"
            env.schedule(float(at_ms), lambda kind=kind: issued.append(
                network.rpc("a", "b", kind, timeout_ms=200.0)))
        env.run(until=150.0)
        before = env.events_executed
        silent = issued[5]
        with pytest.raises(RequestTimeout):
            env.run_until_complete(silent)
        assert env.now == pytest.approx(250.0)
        assert network.stats.rpc_timeouts == 1
        env.run()
        # The five answered entries ahead of the silent RPC left as the next
        # ones were issued.  One sweep at the first deadline (200 ms) finds
        # the silent RPC at the front, one at its deadline fails it and drops
        # the four behind it; nothing is armed afterwards.
        assert env.events_executed - before == 2
        assert env.pending_events == 0 and not network._timeout_wheels[200.0]

    def test_late_reply_after_timeout_is_ignored(self):
        env, network = make_network(latency_ms=1.0)
        stashed = []
        network.register("b", lambda msg: stashed.append(msg))
        network.register("a", lambda msg: None)
        future = network.rpc("a", "b", "slow", timeout_ms=5.0)
        # Reply only after the deadline has passed.
        env.schedule(10.0, lambda: network.reply(stashed[0], {"too": "late"}))
        with pytest.raises(RequestTimeout):
            env.run_until_complete(future)
        env.run()  # the late reply must not blow up
        assert future.triggered and not future.ok

    def test_a_reply_sent_ahead_leaves_when_service_ends(self):
        """``after_ms`` is the service time still to run: the reply arrives
        one hop after it, and a recalled reply never arrives nor counts."""
        env, network = make_network(latency_ms=1.0)
        stashed = []
        network.register("b", stashed.append)
        network.register("a", lambda msg: None)
        kept = network.rpc("a", "b", "work")
        taken = network.rpc("a", "b", "work", timeout_ms=50.0)
        env.run(until=1.0)
        reply_ids = [network.reply(request, request.msg_id, after_ms=4.0)
                     for request in stashed]
        network.recall(reply_ids[1], "work", {})
        assert env.run_until_complete(kept) == stashed[0].msg_id
        assert env.now == 6.0
        with pytest.raises(RequestTimeout):
            env.run_until_complete(taken)
        assert network.stats.sent == 3 and network.stats.delivered == 3
        assert network.stats.per_kind == {"work": 2, "work.reply": 1}
