"""Unit tests for the critical-path latency decomposition."""

import pytest

from repro.obs.critical_path import (
    SEGMENTS,
    aggregate_stack,
    decompose,
    percentile,
)
from repro.obs.trace import Tracer


def _trace():
    tracer = Tracer()
    root = tracer.start_span("txn", "txn", None, "client", 0.0)
    return tracer, root


def _rpc(tracer, root, start, end, status="ok"):
    span = tracer.start_span("rpc", "rpc", tracer.context(root), "client",
                             start)
    tracer.finish(span, end, status=status)
    return span


def _server(tracer, parent, start, end, service_ms, queue_wait_ms=0.0):
    span = tracer.start_span("srv", "server", tracer.context(parent),
                             "server-0", start)
    span.attrs["service_ms"] = service_ms
    span.attrs["queue_wait_ms"] = queue_wait_ms
    tracer.finish(span, end)
    return span


class TestDecompose:
    def test_buckets_sum_exactly_to_latency(self):
        tracer, root = _trace()
        rpc = _rpc(tracer, root, 1.0, 7.0)
        _server(tracer, rpc, 2.0, 6.0, service_ms=3.0, queue_wait_ms=1.0)
        tracer.finish(root, 10.0)
        totals = decompose(root, tracer.trace(root.trace_id)[1:])
        assert sum(totals.values()) == pytest.approx(10.0)
        assert set(totals) == set(SEGMENTS)

    def test_server_time_wins_over_rpc_wire_time(self):
        tracer, root = _trace()
        rpc = _rpc(tracer, root, 0.0, 10.0)
        _server(tracer, rpc, 2.0, 8.0, service_ms=6.0)
        tracer.finish(root, 10.0)
        totals = decompose(root, tracer.trace(root.trace_id)[1:])
        assert totals["service"] == pytest.approx(6.0)
        assert totals["rtt"] == pytest.approx(4.0)  # wire time minus service

    def test_queue_wait_claims_the_admission_interval(self):
        tracer, root = _trace()
        rpc = _rpc(tracer, root, 0.0, 10.0)
        _server(tracer, rpc, 1.0, 9.0, service_ms=4.0, queue_wait_ms=3.0)
        tracer.finish(root, 10.0)
        totals = decompose(root, tracer.trace(root.trace_id)[1:])
        assert totals["queueing"] == pytest.approx(3.0)
        assert totals["service"] == pytest.approx(4.0)

    def test_lock_wait_outranks_everything(self):
        tracer, root = _trace()
        rpc = _rpc(tracer, root, 0.0, 10.0)
        _server(tracer, rpc, 1.0, 9.0, service_ms=8.0)
        lock = tracer.start_span("lock-wait:x", "lock", tracer.context(rpc),
                                 "server-0", 2.0)
        tracer.finish(lock, 7.0)
        tracer.finish(root, 10.0)
        totals = decompose(root, tracer.trace(root.trace_id)[1:])
        assert totals["lock_wait"] == pytest.approx(5.0)
        assert totals["service"] == pytest.approx(3.0)

    @pytest.mark.parametrize("status", ["ok", "timeout"])
    def test_an_rpc_carrying_its_server_side_decomposes_like_the_pair(
            self, status):
        """Queue wait and service as attributes on the RPC span claim what
        a ``server`` span under it claimed."""
        pair, pair_root = _trace()
        rpc = _rpc(pair, pair_root, 1.0, 9.0, status=status)
        _server(pair, rpc, 2.0, 7.5, service_ms=4.0, queue_wait_ms=1.5)
        pair.finish(pair_root, 10.0)
        one, one_root = _trace()
        rpc = _rpc(one, one_root, 1.0, 9.0, status=status)
        rpc.attrs.update(arrival_ms=2.0, queue_wait_ms=1.5, service_ms=4.0)
        one.finish(one_root, 10.0)
        expected = decompose(pair_root, pair.trace(pair_root.trace_id)[1:])
        assert decompose(one_root, one.trace(one_root.trace_id)[1:]) \
            == expected
        assert expected["service"] == 4.0 and expected["queueing"] == 1.5

    def test_an_unserved_rpc_claims_only_its_wire_time(self):
        tracer, root = _trace()
        _rpc(tracer, root, 0.0, 10.0).attrs["dst"] = "server-0"
        tracer.finish(root, 10.0)
        totals = decompose(root, tracer.trace(root.trace_id)[1:])
        assert totals["rtt"] == 10.0 and totals["service"] == 0.0

    def test_timed_out_rpc_counts_as_retry(self):
        tracer, root = _trace()
        _rpc(tracer, root, 0.0, 5.0, status="timeout")
        _rpc(tracer, root, 5.0, 8.0)
        tracer.finish(root, 8.0)
        totals = decompose(root, tracer.trace(root.trace_id)[1:])
        assert totals["retry"] == pytest.approx(5.0)
        assert totals["rtt"] == pytest.approx(3.0)

    def test_unclaimed_time_is_client(self):
        tracer, root = _trace()
        _rpc(tracer, root, 2.0, 4.0)
        tracer.finish(root, 10.0)
        totals = decompose(root, tracer.trace(root.trace_id)[1:])
        assert totals["client"] == pytest.approx(8.0)

    def test_concurrent_rpcs_are_not_double_counted(self):
        tracer, root = _trace()
        _rpc(tracer, root, 0.0, 6.0)
        _rpc(tracer, root, 2.0, 8.0)  # quorum fan-out overlap
        tracer.finish(root, 8.0)
        totals = decompose(root, tracer.trace(root.trace_id)[1:])
        assert totals["rtt"] == pytest.approx(8.0)
        assert sum(totals.values()) == pytest.approx(8.0)

    def test_child_intervals_clip_to_the_root(self):
        tracer, root = _trace()
        root.start_ms = 2.0
        _rpc(tracer, root, 0.0, 10.0)
        tracer.finish(root, 6.0)
        totals = decompose(root, tracer.trace(root.trace_id)[1:])
        assert totals["rtt"] == pytest.approx(4.0)
        assert sum(totals.values()) == pytest.approx(4.0)

    def test_zero_length_root_yields_zero_buckets(self):
        tracer, root = _trace()
        tracer.finish(root, 0.0)
        totals = decompose(root, [])
        assert all(v == 0.0 for v in totals.values())


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.5) == 51
        assert percentile(values, 0.99) == 100
        assert percentile(values, 0.0) == 1

    def test_empty_is_zero(self):
        assert percentile([], 0.99) == 0.0


class TestAggregateStack:
    def test_empty_shape(self):
        aggregate = aggregate_stack([])
        assert aggregate["transactions"] == 0
        assert set(aggregate["mean_breakdown_ms"]) == set(SEGMENTS)

    def test_mean_and_p99(self):
        breakdowns = [
            (4.0, {**{s: 0.0 for s in SEGMENTS}, "rtt": 4.0}),
            (10.0, {**{s: 0.0 for s in SEGMENTS}, "service": 10.0}),
        ]
        aggregate = aggregate_stack(breakdowns)
        assert aggregate["transactions"] == 2
        assert aggregate["mean_latency_ms"] == pytest.approx(7.0)
        assert aggregate["p99_latency_ms"] == pytest.approx(10.0)
        # The p99 transaction's own breakdown, not a blend.
        assert aggregate["p99_breakdown_ms"]["service"] == pytest.approx(10.0)
        assert aggregate["p99_breakdown_ms"]["rtt"] == 0.0
