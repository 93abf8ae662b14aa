"""Deterministic memory pins: a run keeps what is in flight.

A closed-loop run lasts seconds of simulated time and completes thousands of
transactions; what it keeps must grow with the RPCs and transactions still
outstanding, not with the run's length.  An answered RPC leaves its timeout
wheel when the next RPC of its class is issued (it used to wait for the
10 s sweep: 84 974 entries at the peak of the benchmark's eventual run), and
the runner folds each result into its tally as it completes (it used to
keep every ``TransactionResult`` until the run was summarised).
"""

import gc
from types import SimpleNamespace

from repro.bench.runner import RunConfig, run_workload
from repro.hat.testbed import Scenario
from repro.hat.transaction import TransactionResult
from repro.net.latency import FixedLatencyModel
from repro.net.network import Network
from repro.net.topology import Topology
from repro.sim import Environment
from repro.workloads.ycsb import YCSBConfig


def live_results() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is TransactionResult)


def test_an_answered_rpc_leaves_the_wheel_at_the_next_issue():
    env = Environment()
    topology = Topology()
    for name in ("a", "b"):
        topology.add_site(name, region="VA")
    network = Network(env, topology, FixedLatencyModel(1.0))
    network.register("a", lambda message: None)
    network.register("b", lambda message: network.reply(message, "pong"))
    held = []

    def caller():
        for _ in range(1_000):
            future = network.rpc("a", "b", "ping", timeout_ms=10_000.0)
            held.append((len(network._timeout_wheels[10_000.0]),
                         len(network._pending_rpcs)))
            assert (yield future) == "pong"

    env.run_until_complete(env.process(caller()))
    assert len(held) == 1_000 and env.now < 10_000.0
    assert max(wheel - outstanding for wheel, outstanding in held) <= 1


class CountingYCSB:
    """YCSB sessions whose ``observe`` hook counts the live results every
    16th time a transaction completes, beyond those alive before the run."""

    def __init__(self):
        self.ycsb = YCSBConfig(key_count=500)
        self.completed = 0
        self.peak = 0
        gc.collect()
        self.before = live_results()

    def build(self, seed, session_id):
        session = self.ycsb.build(seed, session_id)
        return SimpleNamespace(next_transaction=session.next_transaction,
                               observe=self.observe)

    def observe(self, result):
        self.completed += 1
        if self.completed % 16 == 0:
            self.peak = max(self.peak, live_results() - self.before)


def test_a_run_keeps_no_result_it_has_tallied():
    workload = CountingYCSB()
    config = RunConfig(protocol="eventual",
                       scenario=Scenario(regions=["VA", "OR"],
                                         servers_per_cluster=2),
                       workload=workload, clients_per_cluster=2,
                       duration_ms=300.0, warmup_ms=50.0)
    stats = run_workload(config)
    assert workload.completed > 100 and stats.committed > 100
    # Per client, the result of the transaction in flight and the last one
    # its loop still names.
    assert workload.peak <= 2 * config.total_clients
    assert live_results() == workload.before
