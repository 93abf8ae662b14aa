"""Integration tests for the staleness observatory artifact."""

import json

import pytest

from repro.bench.report import format_staleness, staleness_report_json


@pytest.fixture(scope="module")
def sweep(artifact_sweep):
    """The shared eventual + master sweep; each protocol's run is
    independent, so ``sweep[:1]`` is the eventual-only sweep."""
    return artifact_sweep("staleness")


class TestStalenessExperiment:
    def test_phases_and_probes_populated(self, sweep):
        result = sweep[0]
        assert result.protocol == "eventual"
        assert [p.name for p in result.campaign.phases] == [
            "healthy", "partition", "rebalance"]
        # The healthy phase must see real recency observations.
        healthy = result.phase_recency["healthy"]["t_visibility_ms"]
        assert healthy is not None and healthy["count"] > 0
        assert result.counters["staleness_commits_total"] > 0
        assert result.counters["staleness_reads_total"] > 0
        assert result.cdfs["t_visibility_ms"]
        assert "repro_staleness_commits_total" in result.prometheus

    def test_partition_inflates_eventual_t_visibility(self, sweep):
        """Medians, not p99s: commits just before the cut are charged to
        the healthy bucket, so on a run this short the healthy *tail* is
        already the partition's length; the typical write is not."""
        result = sweep[0]
        healthy = result.phase_quantile("healthy", "t_visibility_ms", "p50")
        partition = result.phase_quantile(
            "partition", "t_visibility_ms", "p50")
        assert healthy is not None and partition is not None
        assert healthy < 100.0
        assert partition > 10.0 * healthy

    def test_sequential_and_parallel_payloads_identical(self, sweep,
                                                        artifact_sweep):
        sequential = staleness_report_json(sweep)
        parallel = staleness_report_json(artifact_sweep("staleness", jobs=2))
        assert (json.dumps(sequential, sort_keys=True, allow_nan=False)
                == json.dumps(parallel, sort_keys=True, allow_nan=False))

    def test_report_renders(self, sweep):
        results = sweep[:1]
        text = format_staleness(results)
        assert "t-visibility (ms)" in text
        assert "nemesis narration" in text
        payload = staleness_report_json(results)
        json.dumps(payload, allow_nan=False)  # strictly JSON-safe
        assert payload["figure"] == "staleness"
        assert payload["protocols"][0]["timeseries"]["fault_windows"]
