"""Unit tests for server-side admission control (a bounded queue, shed
adaptive-LIFO).

The contract under test: a server built with a ``max_queue_depth`` bounds its
request queue, sheds only foreground kinds (evicting the oldest queued one
for the newcomer), replies to shed requests with an explicit fast
``Overloaded`` rejection (no worker time consumed), serves newest-first past
half the bound, and leaves background/cleanup traffic untouched.  A server
built without one behaves exactly as before admission control existed.
"""

import pytest

from repro.cluster.node import ServerNode, ServiceCostModel
from repro.errors import OverloadedError, ReproError
from repro.net.latency import FixedLatencyModel
from repro.net.network import Network
from repro.net.partitions import PartitionManager
from repro.net.topology import Topology
from repro.overload import FOREGROUND_KINDS
from repro.sim import Environment, RandomStreams

#: A foreground (sheddable) kind and a background one.
WORK, BACKGROUND = "ru.get", "ae.push"


def make_rig(max_queue_depth=None, concurrency=1, overhead_ms=5.0):
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
                      max_queue_depth=max_queue_depth)
    node.register_handler(WORK, lambda msg: ({"ok": True}, 0.0))
    node.register_handler(BACKGROUND, lambda msg: ({"ok": True}, 0.0))
    network.register("client", lambda msg: None)
    return env, network, node


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
    def test_the_bound_is_validated(self):
        with pytest.raises(ReproError):
            make_rig(max_queue_depth=0)

    def test_lifo_depth_is_half_the_queue(self):
        _, _, node = make_rig(max_queue_depth=64)
        assert node._lifo_depth == 32

    def test_foreground_kinds_are_the_shed_set(self):
        assert "ru.put" in FOREGROUND_KINDS and WORK in FOREGROUND_KINDS
        assert BACKGROUND not in FOREGROUND_KINDS
        assert "txn.commit" not in FOREGROUND_KINDS


class TestShedding:
    def test_overflow_is_rejected_with_explicit_overload(self):
        # Depth 2 + 1 in service: every request past the third sheds one.
        env, network, node = make_rig(max_queue_depth=2)
        futures = [network.rpc("client", "server", WORK, {})
                   for _ in range(6)]
        served, rejected = drain(env, futures)
        assert len(served) == 3
        assert rejected == 3
        assert node.stats.rejected == 3

    def test_rejection_is_fast_and_costs_no_worker_time(self):
        env, network, node = make_rig(max_queue_depth=1, overhead_ms=50.0)
        futures = [network.rpc("client", "server", WORK, {})
                   for _ in range(3)]
        # The third request evicts the queued second one, whose shed reply
        # comes back after one network round trip (1 ms), long before the
        # 50 ms-per-request queue could have drained.
        with pytest.raises(OverloadedError):
            env.run_until_complete(futures[1])
        assert env.now < 50.0
        served, _rejected = drain(env, futures[::2])
        # Worker time was spent only on the served requests — rejections
        # consumed none.
        assert node.stats.busy_ms == pytest.approx(50.0 * len(served))
        assert len(served) + node.stats.rejected == 3

    def test_background_kinds_are_never_shed(self):
        env, network, node = make_rig(max_queue_depth=1)
        futures = [network.rpc("client", "server", BACKGROUND, {})
                   for _ in range(8)]
        served, rejected = drain(env, futures)
        assert len(served) == 8 and rejected == 0
        assert node.stats.rejected == 0

    def test_no_bound_means_unbounded_fifo(self):
        env, network, node = make_rig(max_queue_depth=None)
        futures = [network.rpc("client", "server", WORK, {})
                   for _ in range(50)]
        served, rejected = drain(env, futures)
        assert len(served) == 50 and rejected == 0


class TestAdaptiveLifo:
    def test_evicts_oldest_sheddable_for_the_newcomer(self):
        env, network, node = make_rig(max_queue_depth=2)
        futures = [network.rpc("client", "server", WORK, {})
                   for _ in range(5)]
        served, rejected = drain(env, futures)
        # The queue stays full (3 served: 1 in service + depth 2), but the
        # *oldest queued* requests were evicted in favour of newcomers.
        assert len(served) == 3
        assert rejected == 2
        assert node.stats.rejected == 2
        # Evicted: the two that were queued when the newcomers came.
        assert [f._failed for f in futures] == [False, True, True, False, False]

    def test_newest_first_service_under_pressure(self):
        env, network, node = make_rig(max_queue_depth=2, overhead_ms=5.0)
        order = []
        node.register_handler("tagged",
                              lambda msg: (order.append(msg.payload["n"])
                                           or ({"ok": True}, 0.0)))
        futures = [network.rpc("client", "server", "tagged", {"n": n})
                   for n in range(4)]
        for future in futures:
            env.run_until_complete(future)
        # Request 0 enters service immediately; above the LIFO depth (1,
        # half the bound) the queue serves newest-first, so 3 (the
        # freshest) comes next, then 2, and 1, the oldest, last.
        assert order == [0, 3, 2, 1]
