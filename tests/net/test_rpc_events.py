"""What one RPC round trip costs the kernel: two events.

The request's delivery runs the server's handler and sends the reply, which
is delivered one hop after the service time ends; the reply's delivery
resolves the caller's future and resumes the waiting process in place.  No
event marks the end of service and none is queued to resume the waiter.
"""

from repro.cluster.node import ServerNode, ServiceCostModel
from repro.net.latency import FixedLatencyModel
from repro.net.network import Network
from repro.net.topology import Topology
from repro.sim import Environment


def test_one_rpc_to_an_idle_server_executes_two_events():
    env = Environment()
    topology = Topology()
    for name in ("client", "server"):
        topology.add_site(name, region="VA")
    network = Network(env, topology, FixedLatencyModel(1.0))
    network.register("client", lambda message: None)
    server = ServerNode(env, network, "server",
                        cost_model=ServiceCostModel(request_overhead_ms=0.5))
    server.register_handler("echo", lambda message: (message.payload, 2.0))
    log = []
    deliver = network._deliver

    def traced_deliver(message):
        deliver(message)
        log.append(("delivered", message.kind, env.now))

    network._deliver = traced_deliver

    def caller():
        reply = yield network.rpc("client", "server", "echo", {"n": 7})
        log.append(("resumed", reply, env.now))

    env.process(caller())
    env.step()  # the process starts and sends the request
    before = env.events_executed
    env.run(until=100.0)  # short of the 10 s deadline's sweep
    assert env.events_executed - before == 2
    # 1 ms there, 0.5 + 2 ms of service, 1 ms back; the waiter has resumed
    # before the reply's delivery returns.
    assert log == [("delivered", "echo", 1.0),
                   ("resumed", {"n": 7}, 4.5),
                   ("delivered", "echo.reply", 4.5)]


def test_a_request_that_queues_costs_one_wake_event():
    """Two requests for one worker: four deliveries and the wake that
    starts the second at the first one's completion instant."""
    env = Environment()
    topology = Topology()
    for name in ("client", "server"):
        topology.add_site(name, region="VA")
    network = Network(env, topology, FixedLatencyModel(1.0))
    network.register("client", lambda message: None)
    server = ServerNode(env, network, "server", cost_model=ServiceCostModel(
        request_overhead_ms=2.0, concurrency=1))
    server.register_handler("echo", lambda message: (message.payload, 0.0))
    first = network.rpc("client", "server", "echo", 1)
    second = network.rpc("client", "server", "echo", 2)
    env.run(until=100.0)
    assert env.events_executed == 5
    assert (first.value, second.value) == (1, 2)
    assert server.stats.queue_wait_ms == 2.0
