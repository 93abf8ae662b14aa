"""End-to-end trace propagation through failover and rebalance.

The tracing tentpole's hardest claim is that context survives the messy
paths: a session client failing over to another replica mid-transaction,
and a key handed off to a joining server mid-write.  Each case must yield
ONE connected trace — every span reachable from the transaction root —
with the fault annotated on the spans that overlapped it.
"""

from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction


def _run(testbed, client, operations):
    return testbed.env.run_until_complete(
        client.execute(Transaction(list(operations))))


def _assert_connected(spans):
    """Every span of the trace hangs off the single root."""
    assert len({span.trace_id for span in spans}) == 1
    ids = {span.span_id for span in spans}
    roots = [span for span in spans if span.parent_id is None]
    assert len(roots) == 1
    for span in spans:
        if span.parent_id is not None:
            assert span.parent_id in ids, (span.name, span.parent_id)


class TestFailoverPropagation:
    def test_session_failover_mid_transaction_stays_one_trace(self):
        scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2,
                            fixed_latency_ms=1.0, seed=0, tracing=True)
        testbed = build_testbed(scenario)
        tracer = testbed.tracer
        client = testbed.make_client("causal")
        cluster = client.node.home_cluster
        servers = testbed.config.cluster(cluster).servers
        keys = [f"key{i}" for i in range(64)]
        owners = {k: testbed.config.local_replica_for(k, cluster)
                  for k in keys}
        key_a = next(k for k in keys if owners[k] == servers[0])
        key_b = next(k for k in keys if owners[k] == servers[1])

        # Seed both keys and let anti-entropy replicate them to the other
        # region, so the post-failover replica is not stale.
        result = _run(testbed, client, [Operation.write(key_a, "va"),
                                        Operation.write(key_b, "vb")])
        assert result.committed
        testbed.run(300.0)

        # Isolate key_a's sticky replica while the transaction is mid-way
        # through its RPC to the *other* server: the next operation must
        # fail over, and the trace must not break.  Announce the fault to
        # the tracer the same way the nemesis narration does.
        def _isolate():
            testbed.network.partitions.isolate(servers[0])
            tracer.faults.on_fault("isolate", (servers[0],), testbed.env.now)

        testbed.env.schedule(1.0, _isolate)
        result = _run(testbed, client, [Operation.read(key_b),
                                        Operation.read(key_a)])
        assert result.committed, result.error
        tracer.finalize(testbed.env.now)

        root = tracer.transaction_span(result.txn_id)
        assert root is not None and root.status == "ok"
        spans = tracer.trace(root.trace_id)
        _assert_connected(spans)

        failovers = [s for s in spans if s.name == "failover"]
        assert failovers, [s.name for s in spans]
        event = failovers[0]
        assert event.attrs["key"] == key_a
        assert event.attrs["from"] == servers[0]
        assert event.attrs["to"] != servers[0]

        # The trace shows work on both sides of the failover: the healthy
        # replica served key_b, the fallback replica served key_a.
        destinations = {s.attrs.get("dst") for s in spans if s.kind == "rpc"}
        assert servers[1] in destinations
        assert event.attrs["to"] in destinations

        # The isolation window stamps the spans that overlapped it.
        windows = [w for w in tracer.fault_windows if w.kind == "isolate"]
        assert len(windows) == 1
        assert windows[0].window_id in root.faults


class TestRebalancePropagation:
    def test_handoff_mid_write_yields_one_annotated_trace(self):
        scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2,
                            fixed_latency_ms=1.0, seed=0, placement="ring",
                            virtual_nodes=32, tracing=True)
        testbed = build_testbed(scenario)
        tracer = testbed.tracer
        client = testbed.make_client("eventual")
        cluster = client.node.home_cluster

        testbed.env.schedule(
            20.0, lambda: testbed.membership.scale_out(cluster))
        results = []
        while testbed.env.now < 400.0:
            results.append(_run(testbed, client, [
                Operation.write(f"hot{len(results) % 8}", len(results)),
                Operation.read(f"hot{len(results) % 8}"),
            ]))
        assert all(r.committed for r in results)
        tracer.finalize(testbed.env.now)

        joins = [r for r in testbed.membership.records if r.kind == "join"]
        assert joins and joins[0].done

        windows = [w for w in tracer.fault_windows if w.kind == "handoff"]
        assert len(windows) == 1
        window = windows[0]
        assert window.end_ms is not None and window.end_ms > window.start_ms
        assert cluster in window.targets

        # At least one transaction ran inside the handoff window, and its
        # span carries the window id.
        annotated = [s for s in tracer.spans
                     if s.kind == "txn" and window.window_id in s.faults]
        assert annotated, (window.start_ms, window.end_ms)

        # That transaction's trace is still a single connected tree with
        # real server-side work in it: an RPC span carrying its service.
        spans = tracer.trace(annotated[0].trace_id)
        _assert_connected(spans)
        assert any(s.kind == "rpc" and s.attrs.get("service_ms", 0.0) > 0.0
                   for s in spans)
