"""Unit tests for the server node's queueing and dispatch."""

import pytest

from repro.cluster.node import ServerNode, ServiceCostModel
from repro.errors import ReproError
from repro.net.latency import FixedLatencyModel
from repro.net.network import Network
from repro.net.partitions import PartitionManager
from repro.net.topology import Topology
from repro.sim import Environment, RandomStreams


def make_rig(concurrency=1, overhead_ms=1.0):
    env = Environment()
    topology = Topology()
    for name in ("server", "client"):
        topology.add_site(name, region="VA")
    network = Network(env, topology, FixedLatencyModel(0.5),
                      streams=RandomStreams(0), partitions=PartitionManager())
    node = ServerNode(env, network, "server",
                      cost_model=ServiceCostModel(request_overhead_ms=overhead_ms,
                                                  concurrency=concurrency))
    network.register("client", lambda msg: None)
    return env, network, node


class TestServerNode:
    def test_handler_reply_round_trip(self):
        env, network, node = make_rig()
        node.register_handler("echo", lambda msg: ({"echo": msg.payload}, 0.0))
        future = network.rpc("client", "server", "echo", {"n": 1})
        assert env.run_until_complete(future) == {"echo": {"n": 1}}
        assert node.stats.requests == 1 and node.stats.replies == 1

    def test_duplicate_handler_rejected(self):
        _env, _network, node = make_rig()
        node.register_handler("x", lambda msg: (None, 0.0))
        with pytest.raises(ReproError):
            node.register_handler("x", lambda msg: (None, 0.0))

    def test_unknown_kind_gets_error_reply(self):
        env, network, node = make_rig()
        future = network.rpc("client", "server", "mystery", {})
        reply = env.run_until_complete(future)
        assert "error" in reply

    def test_service_time_includes_extra_cost(self):
        env, network, node = make_rig(overhead_ms=1.0)
        node.register_handler("slow", lambda msg: ({"ok": True}, 10.0))
        future = network.rpc("client", "server", "slow", {})
        env.run_until_complete(future)
        # 0.5 ms there + 11 ms service + 0.5 ms back.
        assert env.now == pytest.approx(12.0)

    def test_single_worker_serializes_requests(self):
        env, network, node = make_rig(concurrency=1, overhead_ms=5.0)
        node.register_handler("work", lambda msg: ({"ok": True}, 0.0))
        futures = [network.rpc("client", "server", "work", {}) for _ in range(3)]
        for future in futures:
            env.run_until_complete(future)
        # Three requests at 5 ms each on one worker finish no earlier than 15 ms
        # service plus one network round trip.
        assert env.now >= 15.0
        assert node.stats.queue_wait_ms > 0

    def test_concurrency_processes_in_parallel(self):
        env, network, node = make_rig(concurrency=4, overhead_ms=5.0)
        node.register_handler("work", lambda msg: ({"ok": True}, 0.0))
        futures = [network.rpc("client", "server", "work", {}) for _ in range(3)]
        for future in futures:
            env.run_until_complete(future)
        assert env.now == pytest.approx(6.0)  # all three overlap

    def test_crash_drops_requests_and_recover_restores(self):
        env, network, node = make_rig()
        node.register_handler("echo", lambda msg: ({"ok": True}, 0.0))
        node.crash()
        dead = network.rpc("client", "server", "echo", {}, timeout_ms=20.0)
        with pytest.raises(Exception):
            env.run_until_complete(dead)
        node.recover()
        alive = network.rpc("client", "server", "echo", {})
        assert env.run_until_complete(alive) == {"ok": True}

    @pytest.mark.parametrize("recover_at, answered", [
        (None, False), (6.0, True), (12.0, False)])
    def test_a_crash_in_service_recalls_the_reply_unless_it_recovers_in_time(
            self, recover_at, answered):
        """Served at 0.5 ms, service ends at 11.5: a crash at 3 ms takes the
        reply back, a recovery before 11.5 restores it to its instant."""
        env, network, node = make_rig(overhead_ms=1.0)
        node.register_handler("echo", lambda msg: ({"ok": True}, 10.0))
        future = network.rpc("client", "server", "echo", {}, timeout_ms=50.0)
        replies = []
        future.add_callback(lambda done: replies.append((env.now, done.ok)))
        env.schedule(3.0, node.crash)
        if recover_at is not None:
            env.schedule(recover_at, node.recover)
        env.run()
        assert replies == ([(12.0, True)] if answered else [(50.0, False)])
        assert node.stats.replies == int(answered)
        assert network.stats.sent == 1 + answered
        assert network.stats.per_kind.get("echo.reply", 0) == int(answered)
        assert network.stats.rpc_timeouts == int(not answered)
        assert node.busy_workers == 0
        # The recalled reply is kept only while the server is down: a
        # recovery restores it or, past its completion, drops it.
        assert len(node._recalled) == (recover_at is None)

    def test_a_crash_at_the_horizon_of_a_completion_keeps_its_reply(self):
        """Service ends at 11.5 ms; ``run(until=11.5)`` has passed it (the
        completion at the horizon counts as run), so a crash then is too
        late to take the reply back."""
        env, network, node = make_rig(overhead_ms=1.0)
        node.register_handler("echo", lambda msg: ({"ok": True}, 10.0))
        future = network.rpc("client", "server", "echo", {}, timeout_ms=50.0)
        env.run(until=11.5)
        assert node.busy_workers == 0
        node.crash()
        assert env.run_until_complete(future) == {"ok": True}
        assert env.now == 12.0 and node.stats.replies == 1

    def test_busy_workers_counts_requests_in_service(self):
        """Three 5 ms requests on two workers arrive at 0.5 ms; the third
        starts when the first two end, at 5.5 ms."""
        env, network, node = make_rig(concurrency=2, overhead_ms=5.0)
        node.register_handler("work", lambda msg: ({"ok": True}, 0.0))
        for _ in range(3):
            network.rpc("client", "server", "work", {})
        seen = []
        for at in (1.0, 6.0, 11.0):
            env.run(until=at)
            seen.append((node.busy_workers, node.queue_depth))
        assert seen == [(2, 1), (1, 0), (0, 0)]

    def test_payload_size_adds_cost(self):
        env, network, node = make_rig(overhead_ms=1.0)
        node.register_handler("put", lambda msg: ({"ok": True}, 0.0))
        small = network.rpc("client", "server", "put", {"size_bytes": 0})
        env.run_until_complete(small)
        small_time = env.now
        big = network.rpc("client", "server", "put", {"size_bytes": 1024 * 100})
        env.run_until_complete(big)
        assert env.now - small_time > small_time
