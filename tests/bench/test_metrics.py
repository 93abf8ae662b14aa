"""Unit tests for benchmark metrics aggregation."""

import json
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.metrics import LatencySummary, RunTally
from repro.hat.transaction import ReadObservation, TransactionResult
from repro.storage.records import Timestamp, Version


def result(txn_id, committed=True, start=0.0, end=10.0, reads=0, writes=0,
           remote=0):
    r = TransactionResult(txn_id=txn_id, committed=committed, protocol="eventual",
                          start_ms=start, end_ms=end, remote_rpcs=remote)
    for i in range(reads):
        r.reads.append(ReadObservation(key=f"k{i}",
                                       version=Version(f"k{i}", i, Timestamp(1, 1))))
    r.writes = {f"w{i}": i for i in range(writes)}
    return r


class TestLatencySummary:
    def test_from_samples(self):
        summary = LatencySummary.from_samples([1.0, 2.0, 3.0, 4.0, 100.0])
        assert summary.count == 5
        assert summary.mean == pytest.approx(22.0)
        assert summary.p50 == pytest.approx(3.0)
        assert summary.maximum == 100.0
        assert summary.p95 >= summary.p50

    def test_empty_samples(self):
        summary = LatencySummary.from_samples([])
        assert summary.count == 0
        assert summary.mean is None
        assert summary.p95 is None
        assert summary.maximum is None

    def test_empty_samples_serialize_to_valid_json(self):
        """Regression: empty sample sets used to emit NaN, which is invalid
        JSON and corrupted serialized bench reports."""
        summary = LatencySummary.from_samples([])
        payload = json.dumps(summary.as_dict(), allow_nan=False)
        assert "NaN" not in payload
        assert json.loads(payload)["mean"] is None

    def test_populated_summary_serializes(self):
        summary = LatencySummary.from_samples([1.0, 2.0])
        payload = json.loads(json.dumps(summary.as_dict(), allow_nan=False))
        assert payload["count"] == 2
        assert payload["mean"] == pytest.approx(1.5)


def tally_of(results, measure_start_ms=0.0):
    tally = RunTally(measure_start_ms)
    for r in results:
        tally.add(r)
    return tally


class TestSummarizeRun:
    def test_throughput_and_latency(self):
        results = [result(i, start=0.0, end=5.0, reads=2, writes=2) for i in range(10)]
        stats = tally_of(results).summarize("eventual", clients=4,
                                            duration_ms=1000.0)
        assert stats.committed == 10
        assert stats.throughput_txn_s == pytest.approx(10.0 / 1.0)
        assert stats.operations == 40
        assert stats.latency.mean == pytest.approx(5.0)

    def test_warmup_exclusion(self):
        early = [result(1, start=0.0, end=50.0)]
        late = [result(2, start=500.0, end=600.0)]
        stats = tally_of(early + late, measure_start_ms=100.0).summarize(
            "eventual", clients=1, duration_ms=1000.0, warmup_ms=100.0)
        assert stats.committed == 1
        assert stats.duration_ms == pytest.approx(900.0)

    def test_abort_rate(self):
        results = [result(1), result(2, committed=False), result(3, committed=False)]
        stats = tally_of(results).summarize("quorum", clients=1,
                                            duration_ms=1000.0)
        assert stats.aborted == 2
        assert stats.abort_rate == pytest.approx(2.0 / 3.0)

    def test_remote_rpc_fraction(self):
        results = [result(1, reads=4, remote=2)]
        stats = tally_of(results).summarize("master", clients=1,
                                            duration_ms=1000.0)
        assert stats.remote_rpc_fraction == pytest.approx(0.5)


class TestFromDigest:
    def _digest(self, samples):
        from repro.loadgen.sketch import LatencyDigest

        digest = LatencyDigest()
        digest.extend(samples)
        return digest

    def test_matches_exact_stats(self):
        """Integers below 256 are bucket edges: the nearest-rank samples."""
        samples = [float(v) for v in range(1, 101)]
        summary = LatencySummary.from_digest(self._digest(samples))
        assert summary.count == 100
        assert summary.mean == 50.5
        assert summary.maximum == 100.0
        assert (summary.p50, summary.p95, summary.p99) == (50.0, 95.0, 99.0)

    def test_none_and_empty_digest_yield_empty_summary(self):
        assert LatencySummary.from_digest(None) == LatencySummary.empty()
        empty = LatencySummary.from_digest(self._digest([]))
        assert empty == LatencySummary.empty()
        # Same JSON contract as the sample path: None, never NaN.
        payload = json.dumps(empty.as_dict(), allow_nan=False)
        assert json.loads(payload)["mean"] is None

    def test_agrees_with_small_sample_path(self):
        """Regression: histogram summaries of a tiny window agree with the
        exact sample path on the exact stats."""
        samples = [12.0, 3.0, 7.0]
        from_list = LatencySummary.from_samples(samples)
        from_digest = LatencySummary.from_digest(self._digest(samples))
        assert from_digest.count == from_list.count
        assert from_digest.mean == from_list.mean
        assert from_digest.maximum == from_list.maximum


class TestOnePercentile:
    """One path at every sample size, checked against the standard library:
    ``statistics.quantiles``' inclusive method is the same linear
    interpolation, computed another way."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2,
                    max_size=500))
    def test_percentiles_are_the_inclusive_quantiles(self, samples):
        summary = LatencySummary.from_samples(samples)
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        for statistic, percent in ((summary.p50, 50), (summary.p95, 95),
                                   (summary.p99, 99)):
            assert statistic == pytest.approx(cuts[percent - 1], rel=1e-9)
        assert summary.count == len(samples)
        assert summary.mean == sum(sorted(samples)) / len(samples)
        assert summary.maximum == max(samples)
