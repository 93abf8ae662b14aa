"""Unit tests for server-side admission control (bounded queues + shedding).

The contract under test: a server built with an
:class:`~repro.overload.admission.AdmissionConfig` bounds its request queue,
sheds only foreground (sheddable) kinds, replies to shed requests with an
explicit fast ``Overloaded`` rejection (no worker time consumed), and leaves
background/cleanup traffic untouched.  A server built without one behaves
exactly as before admission control existed.
"""

import pytest

from repro.cluster.node import ServerNode, ServiceCostModel
from repro.errors import OverloadedError
from repro.net.latency import FixedLatencyModel
from repro.net.network import Network
from repro.net.partitions import PartitionManager
from repro.net.topology import Topology
from repro.overload import ADMISSION_POLICIES, FOREGROUND_KINDS, AdmissionConfig
from repro.sim import Environment, RandomStreams


def make_rig(admission=None, concurrency=1, overhead_ms=5.0):
    env = Environment()
    topology = Topology()
    for name in ("server", "client"):
        topology.add_site(name, region="VA")
    network = Network(env, topology, FixedLatencyModel(0.5),
                      streams=RandomStreams(0), partitions=PartitionManager())
    node = ServerNode(env, network, "server",
                      cost_model=ServiceCostModel(
                          request_overhead_ms=overhead_ms,
                          concurrency=concurrency),
                      admission=admission)
    node.register_handler("work", lambda msg: ({"ok": True}, 0.0))
    node.register_handler("background", lambda msg: ({"ok": True}, 0.0))
    network.register("client", lambda msg: None)
    return env, network, node


def sheddable(**kwargs):
    return AdmissionConfig(sheddable_kinds=frozenset({"work"}), **kwargs)


def drain(env, futures):
    """Resolve every future; returns (payloads, rejections)."""
    served, rejected = [], 0
    for future in futures:
        try:
            served.append(env.run_until_complete(future))
        except OverloadedError:
            rejected += 1
    return served, rejected


class TestConfig:
    def test_policies_are_validated(self):
        with pytest.raises(Exception):
            AdmissionConfig(policy="random-early-nope")
        with pytest.raises(Exception):
            AdmissionConfig(max_queue_depth=0)
        for policy in ADMISSION_POLICIES:
            AdmissionConfig(policy=policy)

    def test_lifo_depth_defaults_to_half_the_queue(self):
        config = AdmissionConfig(max_queue_depth=64)
        assert config.lifo_depth == 32
        assert AdmissionConfig(max_queue_depth=64, lifo_depth=5).lifo_depth == 5

    def test_foreground_kinds_are_the_default_shed_set(self):
        config = AdmissionConfig()
        assert config.sheddable_kinds == FOREGROUND_KINDS
        assert "ru.put" in config.sheddable_kinds
        assert "ae.push" not in config.sheddable_kinds
        assert "txn.commit" not in config.sheddable_kinds


class TestDropTail:
    def test_overflow_is_rejected_with_explicit_overload(self):
        # Depth 2 + 1 in service: the 4th and later requests are shed.
        env, network, node = make_rig(sheddable(max_queue_depth=2))
        futures = [network.rpc("client", "server", "work", {})
                   for _ in range(6)]
        served, rejected = drain(env, futures)
        assert len(served) == 3
        assert rejected == 3
        assert node.stats.rejected == 3

    def test_rejection_is_fast_and_costs_no_worker_time(self):
        env, network, node = make_rig(sheddable(max_queue_depth=1),
                                      overhead_ms=50.0)
        futures = [network.rpc("client", "server", "work", {})
                   for _ in range(3)]
        # The shed reply comes back after one network round trip (1 ms),
        # long before the 50 ms-per-request queue could have drained.
        with pytest.raises(OverloadedError):
            env.run_until_complete(futures[2])
        assert env.now < 50.0
        served, _rejected = drain(env, futures[:2])
        # Worker time was spent only on the served requests — rejections
        # consumed none.
        assert node.stats.busy_ms == pytest.approx(50.0 * len(served))
        assert len(served) + node.stats.rejected == 3

    def test_background_kinds_are_never_shed(self):
        env, network, node = make_rig(sheddable(max_queue_depth=1))
        futures = [network.rpc("client", "server", "background", {})
                   for _ in range(8)]
        served, rejected = drain(env, futures)
        assert len(served) == 8 and rejected == 0
        assert node.stats.rejected == 0

    def test_no_admission_config_means_unbounded_fifo(self):
        env, network, node = make_rig(admission=None)
        futures = [network.rpc("client", "server", "work", {})
                   for _ in range(50)]
        served, rejected = drain(env, futures)
        assert len(served) == 50 and rejected == 0


class TestAdaptiveLifo:
    def test_evicts_oldest_sheddable_for_the_newcomer(self):
        env, network, node = make_rig(
            sheddable(max_queue_depth=2, policy="adaptive-lifo"))
        futures = [network.rpc("client", "server", "work", {})
                   for _ in range(5)]
        served, rejected = drain(env, futures)
        # The queue stays full (3 served: 1 in service + depth 2), but the
        # *oldest queued* requests were evicted in favour of newcomers.
        assert len(served) == 3
        assert rejected == 2
        assert node.stats.rejected == 2

    def test_newest_first_service_under_pressure(self):
        env, network, node = make_rig(
            sheddable(max_queue_depth=8, lifo_depth=1,
                      policy="adaptive-lifo"),
            overhead_ms=5.0)
        order = []
        node.register_handler("tagged",
                              lambda msg: (order.append(msg.payload["n"])
                                           or ({"ok": True}, 0.0)))
        config = node.admission
        assert config.policy == "adaptive-lifo"
        futures = [network.rpc("client", "server", "tagged", {"n": n})
                   for n in range(4)]
        for future in futures:
            env.run_until_complete(future)
        # Request 0 enters service immediately; above lifo_depth the queue
        # serves newest-first, so 3 (the freshest) precedes 1.
        assert order[0] == 0
        assert order.index(3) < order.index(1)


class TestCodel:
    def test_stale_requests_dropped_at_dequeue(self):
        # One worker at 40 ms per request, codel target 5 ms: by the time
        # the first request finishes, the queued ones have waited 40 ms and
        # are dropped at dequeue instead of served.
        env, network, node = make_rig(
            sheddable(max_queue_depth=16, policy="codel",
                      codel_target_ms=5.0),
            overhead_ms=40.0)
        futures = [network.rpc("client", "server", "work", {})
                   for _ in range(4)]
        served, rejected = drain(env, futures)
        assert len(served) == 1
        assert rejected == 3
        assert node.stats.rejected == 3

    def test_fresh_requests_survive(self):
        env, network, node = make_rig(
            sheddable(max_queue_depth=16, policy="codel",
                      codel_target_ms=5.0),
            overhead_ms=1.0)
        futures = [network.rpc("client", "server", "work", {})
                   for _ in range(4)]
        served, rejected = drain(env, futures)
        assert len(served) == 4 and rejected == 0
