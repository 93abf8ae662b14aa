"""Unit tests for the tracing core: spans, contexts, and fault windows."""

from repro.obs.trace import FaultWindow, Tracer


class TestSpanIdentity:
    def test_ids_are_tracer_local_and_start_at_one(self):
        tracer = Tracer()
        first = tracer.start_span("a", "txn", None, "site", 0.0)
        second = Tracer().start_span("b", "txn", None, "site", 0.0)
        assert first.span_id == 1 and first.trace_id == 1
        assert second.span_id == 1 and second.trace_id == 1

    def test_parentless_span_starts_a_fresh_trace(self):
        tracer = Tracer()
        a = tracer.start_span("a", "txn", None, "s", 0.0)
        b = tracer.start_span("b", "ae", None, "s", 1.0)
        assert a.trace_id != b.trace_id
        assert a.parent_id is None and b.parent_id is None

    def test_child_inherits_trace_and_parent(self):
        tracer = Tracer()
        root = tracer.start_span("root", "txn", None, "s", 0.0)
        child = tracer.start_span("rpc", "rpc", root, "s", 1.0)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_finish_sets_end_and_status(self):
        tracer = Tracer()
        span = tracer.start_span("rpc", "rpc", None, "s", 2.0)
        tracer.finish(span, 5.0, status="timeout")
        assert span.end_ms == 5.0 and span.status == "timeout"
        assert span.duration_ms == 3.0

    def test_event_is_instantaneous(self):
        tracer = Tracer()
        root = tracer.start_span("root", "txn", None, "s", 0.0)
        event = tracer.event("failover", root, "s", 4.0)
        assert event.kind == "event"
        assert event.start_ms == event.end_ms == 4.0
        assert event.trace_id == root.trace_id


class TestTransactions:
    def test_begin_and_finish_roundtrip(self):
        tracer = Tracer()
        tracer.begin_transaction(7, "causal", "client-0", 1.0, label="neworder")
        tracer.finish_transaction(7, 9.0, committed=True, remote_rpcs=2)
        span = tracer.transaction_span(7)
        assert span.name == "txn:causal" and span.kind == "txn"
        assert span.status == "ok"
        assert span.attrs["label"] == "neworder"
        assert span.attrs["committed"] is True
        assert span.attrs["remote_rpcs"] == 2

    def test_aborted_transaction_records_error(self):
        tracer = Tracer()
        tracer.begin_transaction(1, "mav", "c", 0.0)
        tracer.finish_transaction(1, 2.0, committed=False, error="timeout")
        span = tracer.transaction_span(1)
        assert span.status == "aborted" and span.attrs["error"] == "timeout"

    def test_finish_of_unknown_txn_is_a_noop(self):
        Tracer().finish_transaction(99, 1.0, committed=True)


class TestFaultWindows:
    def test_partition_opens_and_heal_closes(self):
        tracer = Tracer()
        tracer.faults.on_fault("partition", ("VA", "OR"), 10.0, "split")
        tracer.faults.on_fault("heal", (), 30.0)
        (window,) = tracer.fault_windows
        assert window.kind == "partition"
        assert window.start_ms == 10.0 and window.end_ms == 30.0

    def test_clear_partition_also_closes_partitions(self):
        tracer = Tracer()
        tracer.faults.on_fault("partition", ("VA", "OR"), 5.0)
        tracer.faults.on_fault("clear-partition", (), 15.0)
        assert tracer.fault_windows[0].end_ms == 15.0

    def test_targeted_closer_matches_targets(self):
        tracer = Tracer()
        tracer.faults.on_fault("isolate", ("s0",), 0.0)
        tracer.faults.on_fault("isolate", ("s1",), 1.0)
        tracer.faults.on_fault("rejoin", ("s1",), 5.0)
        by_target = {w.targets: w for w in tracer.fault_windows}
        assert by_target[("s1",)].end_ms == 5.0
        assert by_target[("s0",)].end_ms is None

    def test_crash_recover_and_degrade_restore_pair(self):
        tracer = Tracer()
        tracer.faults.on_fault("crash", ("s0",), 0.0)
        tracer.faults.on_fault("degrade", (), 1.0)
        tracer.faults.on_fault("recover", ("s0",), 4.0)
        tracer.faults.on_fault("restore", (), 6.0)
        kinds = {w.kind: w for w in tracer.fault_windows}
        assert kinds["crash"].end_ms == 4.0
        assert kinds["degrade"].end_ms == 6.0

    def test_informational_kinds_become_zero_width_markers(self):
        tracer = Tracer()
        tracer.faults.on_fault("scale-out", ("cluster0-VA",), 3.0)
        (window,) = tracer.fault_windows
        assert window.start_ms == window.end_ms == 3.0

    def test_overlaps_treats_open_end_as_infinite(self):
        window = FaultWindow(1, "partition", (), 10.0)
        assert window.overlaps(100.0, 200.0)
        window.end_ms = 20.0
        assert not window.overlaps(20.0, 30.0)
        assert window.overlaps(15.0, 30.0)


class TestFinalize:
    def test_finalize_closes_open_windows_and_stamps_overlaps(self):
        tracer = Tracer()
        inside = tracer.start_span("t1", "txn", None, "s", 12.0)
        tracer.finish(inside, 18.0)
        outside = tracer.start_span("t2", "txn", None, "s", 0.0)
        tracer.finish(outside, 5.0)
        tracer.faults.on_fault("partition", ("VA",), 10.0)
        tracer.finalize(40.0)
        assert tracer.fault_windows[0].end_ms == 40.0
        assert inside.faults == (tracer.fault_windows[0].window_id,)
        assert outside.faults == ()

    def test_zero_width_marker_windows_do_not_stamp(self):
        tracer = Tracer()
        span = tracer.start_span("t", "txn", None, "s", 0.0)
        tracer.finish(span, 10.0)
        tracer.faults.on_fault("scale-out", ("c",), 5.0)
        tracer.finalize(20.0)
        assert span.faults == ()

    def test_finalize_closes_unfinished_spans(self):
        tracer = Tracer()
        span = tracer.start_span("t", "txn", None, "s", 3.0)
        tracer.finalize(50.0)
        assert span.end_ms == 3.0  # falls back to start, not now


class TestQueries:
    def test_trace_and_roots(self):
        """Every span is recorded in start order; a trace is the spans that
        share its id, and a root is a span with no parent."""
        tracer = Tracer()
        root = tracer.start_span("r", "txn", None, "s", 0.0)
        child = tracer.start_span("c", "rpc", root, "s", 1.0)
        other = tracer.start_span("o", "ae", None, "s", 2.0)
        assert [s for s in tracer.spans if s.trace_id == root.trace_id] == [
            root, child]
        assert [s for s in tracer.spans if s.parent_id is None] == [root, other]
        assert other.trace_id != root.trace_id
