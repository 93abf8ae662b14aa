"""Tests for the ``tpcc-sim`` experiment, its report, and its JSON form."""

import json

import pytest

from repro.bench.experiments import TPCC_SIM_PROTOCOLS
from repro.bench.report import format_tpcc_sim, tpcc_sim_report_json
from repro.workloads.tpcc_driver import contended_tpcc_config


@pytest.fixture(scope="module")
def healthy_results(artifact_sweep):
    return artifact_sweep("tpcc_sim_healthy")


@pytest.fixture(scope="module")
def partitioned_results(artifact_sweep):
    return artifact_sweep("tpcc_sim_partitioned")


class TestExperiment:
    def test_sweep_covers_requested_protocols(self, healthy_results):
        assert [r.protocol for r in healthy_results] == \
            ["read-committed", "lock-sr"]
        assert all(not r.partitioned for r in healthy_results)

    def test_default_protocol_set_spans_the_taxonomy(self):
        assert "eventual" in TPCC_SIM_PROTOCOLS
        assert "causal" in TPCC_SIM_PROTOCOLS
        assert "lock-sr" in TPCC_SIM_PROTOCOLS

    def test_hat_beats_locking_on_throughput_but_not_anomalies(
            self, healthy_results):
        rc, locking = healthy_results
        assert rc.stats.committed > locking.stats.committed
        assert rc.anomalies.order_id_anomalies >= 1
        assert locking.anomalies.order_id_anomalies == 0
        assert locking.anomalies.double_deliveries == []

    def test_committed_by_type_tracks_programs(self, healthy_results):
        rc = healthy_results[0]
        assert rc.committed_by_type.get("new-order", 0) > 0
        assert sum(rc.committed_by_type.values()) == rc.stats.committed

    def test_partitioned_run_scores_phases(self, partitioned_results):
        result = partitioned_results[0]
        assert result.partitioned
        assert set(result.phase_availability) == \
            {"baseline", "partition", "recovered"}
        # The HAT stack keeps serving through the partition.
        assert result.phase_availability["partition"] == pytest.approx(1.0)
        assert result.narration, "the nemesis must have fired"

    def test_default_config_is_contended(self):
        config = contended_tpcc_config()
        assert config.warehouses * config.districts_per_warehouse <= 4


class TestReport:
    def test_text_table_lists_protocols_and_counts(self, healthy_results):
        text = format_tpcc_sim(healthy_results)
        assert "read-committed" in text and "lock-sr" in text
        assert "dup-ids" in text and "dbl-deliv" in text
        assert "avail:" not in text  # healthy run: no phase columns

    def test_partitioned_table_adds_phase_columns(self, partitioned_results):
        text = format_tpcc_sim(partitioned_results)
        assert "avail:partition" in text
        assert "nemesis narration" in text

    def test_empty_results(self):
        assert format_tpcc_sim([]) == "(no data)"

    def test_json_payload_is_serializable(self, healthy_results):
        payload = tpcc_sim_report_json(healthy_results)
        round_tripped = json.loads(json.dumps(payload, allow_nan=False))
        entry = round_tripped["protocols"][0]
        assert entry["protocol"] == "read-committed"
        assert entry["anomalies"]["orders_claimed"] > 0
        assert "committed_by_type" in entry

    def test_json_includes_campaign_details_when_partitioned(
            self, partitioned_results):
        payload = tpcc_sim_report_json(partitioned_results)
        entry = payload["protocols"][0]
        assert entry["partitioned"] is True
        assert "phase_availability" in entry
        assert entry["narration"]


class TestCLIIntegration:
    def test_artifact_registered(self):
        from repro.bench.__main__ import ARTIFACTS

        assert "tpcc-sim" in ARTIFACTS
