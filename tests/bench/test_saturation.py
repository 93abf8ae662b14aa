"""Tests for the open-loop saturation experiment and its report."""

import json

import pytest

from repro.bench.experiments import SATURATION_PROTOCOLS
from repro.bench.report import format_saturation, saturation_report_json

@pytest.fixture(scope="module")
def results(artifact_sweep):
    return artifact_sweep("saturation")


class TestExperiment:
    def test_result_shape(self, results):
        assert [r.protocol for r in results] == ["eventual", "lock-sr"]
        for result in results:
            assert result.users == 5_000
            assert result.sessions == 4  # 2 clusters x 2 sessions
            assert result.ramp.offered > 0
            assert result.windows, "merged ramp windows missing"
            assert result.knee_txn_s > 0
            assert result.heal.offered > 0

    def test_ramp_windows_merge_regions(self, results):
        ramp = results[0]
        assert sum(w.offered for w in ramp.windows) <= ramp.ramp.offered
        assert all(w.end_ms > w.start_ms for w in ramp.windows)

    def test_eventual_outperforms_locking(self, results):
        eventual, locking = results
        assert eventual.knee_txn_s > locking.knee_txn_s

    def test_tail_quantiles_ordered(self, results):
        for result in results:
            assert result.p50_ms <= result.p99_ms <= result.p999_ms

    def test_heal_campaign_is_recorded(self, results):
        for result in results:
            assert result.heal_campaign
            assert result.narration

    def test_parallel_results_bit_identical(self, results, artifact_sweep):
        parallel = artifact_sweep("saturation", jobs=2)
        sequential_json = json.dumps(saturation_report_json(results),
                                     sort_keys=True)
        parallel_json = json.dumps(saturation_report_json(parallel),
                                   sort_keys=True)
        assert sequential_json == parallel_json


class TestReport:
    def test_format_mentions_every_protocol(self, results):
        text = format_saturation(results)
        for result in results:
            assert result.protocol in text
        assert "knee" in text

    def test_json_payload_is_serializable(self, results):
        payload = saturation_report_json(results)
        encoded = json.dumps(payload, allow_nan=False)
        decoded = json.loads(encoded)
        assert decoded["figure"] == "saturation"
        by_protocol = {e["protocol"]: e for e in decoded["protocols"]}
        assert set(by_protocol) == {"eventual", "lock-sr"}
        entry = by_protocol["eventual"]
        assert entry["knee_txn_s"] > 0
        assert "drain_ms" in entry["heal"]
        assert entry["ramp"]["windows"], "per-window series missing"

    def test_default_protocol_list(self):
        assert "eventual" in SATURATION_PROTOCOLS
        assert "lock-sr" in SATURATION_PROTOCOLS
        assert len(SATURATION_PROTOCOLS) == 5
