"""Each cold instrumentation seam, fired once with its observer on.

No artifact, example or benchmark workload turns tracing or metrics on
together with a contended lock, a sticky stale read or dependency
forwarding, so these seams ran nowhere; a seam ships only while a test here
executes it (the rpc ``timeout`` status ran only in the ``trace`` artifact's
CLI sweep).  (Sheds, the breaker, the retry budget and the rpc
``overloaded`` status fire in ``test_collected_scalars.py``'s overload leg;
the handoff counters in its churned ring deployment.)
"""

from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction
from repro.replication.antientropy import AntiEntropyConfig
from txn import run_txn


def observed_testbed(**overrides):
    """VA + OR, two servers each, tracing and metrics on; replicas only
    converge through explicit action, so who holds what is deterministic."""
    return build_testbed(Scenario(
        regions=["VA", "OR"], servers_per_cluster=2, tracing=True,
        metrics=True, anti_entropy=AntiEntropyConfig(interval_ms=600_000.0),
        **overrides))


def events(testbed, name):
    return [span for span in testbed.tracer.spans if span.name == name]


class TestLockWait:
    def test_a_contended_grant_earns_a_span_and_a_wait_observation(self):
        testbed = observed_testbed(fixed_latency_ms=1.0)
        first, second = (testbed.make_client("lock-sr") for _ in range(2))
        processes = [client.execute(Transaction([Operation.write("hot", n)]))
                     for n, client in enumerate((first, second))]
        results = [testbed.env.run_until_complete(p) for p in processes]
        assert all(result.committed for result in results)

        master = testbed.servers[testbed.config.placements["hot"].master]
        assert master.locks.stats.waited == 1
        wait, = events(testbed, "lock-wait:hot")
        assert wait.kind == "lock" and wait.site == master.name
        assert wait.attrs["key"] == "hot"
        assert wait.attrs["wait_ms"] == wait.duration_ms > 0.0
        # The span hangs in the waiter's trace, under its lock.acquire.
        first, waiter = (testbed.tracer.transaction_span(p.value.txn_id)
                         for p in processes)
        assert wait.trace_id == waiter.trace_id != first.trace_id

        metrics = testbed.metrics
        summary = metrics.summary("lock_wait_ms", node=master.name)
        assert summary["count"] == 1
        assert summary["max"] == wait.attrs["wait_ms"]
        waits = ("lock_waits_total", (("node", master.name),))
        assert metrics.counters.get(waits, 0.0) == 1.0
        assert metrics.counter_total("lock_waits_total") == 1.0

    def test_an_uncontended_grant_records_nothing(self):
        testbed = observed_testbed(fixed_latency_ms=1.0)
        client = testbed.make_client("lock-sr")
        assert run_txn(testbed, client, [Operation.write("cold", 1)]).committed
        assert not [s for s in testbed.tracer.spans if s.kind == "lock"]
        assert "lock_wait_ms" not in testbed.metrics.prometheus()
        assert testbed.metrics.counter_total("lock_waits_total") == 0.0


class TestRpcTimeout:
    def test_an_rpc_to_a_crashed_server_closes_its_span_as_a_timeout(self):
        testbed = observed_testbed(fixed_latency_ms=1.0)
        client = testbed.make_client("master", rpc_timeout_ms=50.0)
        testbed.servers[testbed.config.placements["profile"].master].crash()
        result = run_txn(testbed, client, [Operation.read("profile")])
        assert not result.committed
        timed_out, = [s for s in testbed.tracer.spans if s.status == "timeout"]
        assert timed_out.name == "rpc:master.get"
        assert timed_out.duration_ms == 50.0
        root = testbed.tracer.transaction_span(result.txn_id)
        assert timed_out.parent_id == root.span_id and root.status == "aborted"


class TestSessionRepair:
    def test_a_sticky_stale_read_is_annotated_where_it_was_repaired(self):
        testbed = observed_testbed()
        home = testbed.config.cluster_names[0]
        session = testbed.make_client("read-committed+ryw", home_cluster=home)
        run_txn(testbed, session, [Operation.write("profile", "mine")])
        dead = set(testbed.config.cluster(home).servers)
        testbed.network.partitions.partition_by(
            lambda site: None if site in dead else "rest")
        result = run_txn(testbed, session, [Operation.read("profile")])
        assert result.value_read("profile") == "mine"
        assert session.session.cache_hits == 1

        repair, = events(testbed, "session-repair")
        assert repair.kind == "event" and repair.site == session.node.name
        assert repair.attrs["key"] == "profile"
        root = testbed.tracer.transaction_span(result.txn_id)
        assert repair.trace_id == root.trace_id
        assert root.start_ms <= repair.start_ms <= root.end_ms
        # The failover that made the read stale is in the same trace.
        assert [s.trace_id for s in events(testbed, "failover")] \
            == [root.trace_id]


class TestLayerBegin:
    def test_a_begin_that_forwards_dependencies_earns_a_layer_span(self):
        testbed = observed_testbed()
        home = testbed.config.cluster_names[0]
        session = testbed.make_client("causal", home_cluster=home)
        keys = [f"k{i}" for i in range(8)]
        for key in keys:
            run_txn(testbed, session, [Operation.write(key, key.upper())])
        # Every begin so far found nothing owed: no span.
        assert not [s for s in testbed.tracer.spans if s.kind == "layer"
                    and s.name.endswith(".begin")]
        testbed.network.partitions.isolate(
            testbed.config.placements["k0"].replicas[testbed.config.cluster_index(home)])
        result = run_txn(testbed, session, [Operation.write("fresh", 1)])
        assert result.committed and session.session.forwards_issued > 0

        begins = [s for s in testbed.tracer.spans if s.kind == "layer"
                  and s.name.endswith(".begin")]
        assert begins and {s.name for s in begins} <= {
            "layer:mw.begin", "layer:wfr.begin"}
        root = testbed.tracer.transaction_span(result.txn_id)
        for span in begins:
            assert span.trace_id == root.trace_id
            assert span.parent_id == root.span_id
            assert span.duration_ms > 0.0
        # The forwarding RPCs themselves ran inside the begin span's interval.
        forwards = [s for s in testbed.tracer.spans
                    if s.trace_id == root.trace_id and s.kind == "rpc"
                    and s.start_ms < begins[0].end_ms]
        assert len(forwards) >= session.session.forwards_issued
