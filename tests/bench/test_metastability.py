"""Tests for the metastability experiment and its report.

The artifact's headline claim — the same trigger pins goodput when the
defenses are off and is absorbed when they are on — is asserted here at
the experiment's default (quick) parameterization for a single protocol,
so the signature the CI smoke run relies on is pinned by a test as well.
"""

import json

import pytest

from repro.bench.experiments import (
    METASTABILITY_PIN_FRACTION,
    METASTABILITY_PROTOCOLS,
    METASTABILITY_RECOVERY_FRACTION,
)
from repro.bench.report import format_metastability, metastability_report_json


@pytest.fixture(scope="module")
def results(artifact_sweep):
    return artifact_sweep("metastability")


class TestExperiment:
    def test_result_shape(self, results):
        assert [r.protocol for r in results] == ["eventual"]
        result = results[0]
        assert not result.undefended.defended
        assert result.defended.defended
        for run in (result.undefended, result.defended):
            assert run.windows, "goodput timeline missing"
            assert run.healthy_rate_s > 0
            assert run.heal_at_ms > 0
            assert run.narration

    def test_undefended_run_stays_pinned_after_the_heal(self, results):
        run = results[0].undefended
        assert run.pinned
        assert not run.recovered
        assert run.time_to_recover_ms is None
        assert (run.post_heal_rate_s
                <= METASTABILITY_PIN_FRACTION * run.healthy_rate_s)
        # The sustaining feedback is the retry storm: no defenses engaged.
        assert run.stats.retries > 0
        assert run.stats.retry_denials == 0
        assert run.stats.breaker_denials == 0
        assert run.stats.server_rejected == 0

    def test_defended_run_absorbs_the_same_trigger(self, results):
        run = results[0].defended
        assert run.recovered
        assert not run.pinned
        assert run.time_to_recover_ms is not None
        assert run.time_to_recover_ms >= 0.0
        # Recovery means the trailing goodput crossed the threshold.
        assert (run.post_heal_rate_s
                > METASTABILITY_PIN_FRACTION * run.healthy_rate_s)
        # The defenses did the absorbing — each layer visibly engaged.
        assert (run.stats.retry_denials > 0
                or run.stats.breaker_denials > 0)
        assert run.stats.server_rejected > 0

    def test_defenses_shed_rather_than_amplify(self, results):
        undefended, defended = results[0].undefended, results[0].defended
        assert defended.stats.retries < undefended.stats.retries
        assert defended.stats.committed > undefended.stats.committed

    def test_parallel_results_bit_identical(self, results, artifact_sweep):
        parallel = artifact_sweep("metastability", jobs=2)
        sequential_json = json.dumps(metastability_report_json(results),
                                     sort_keys=True)
        parallel_json = json.dumps(metastability_report_json(parallel),
                                   sort_keys=True)
        assert sequential_json == parallel_json


class TestReport:
    def test_format_shows_both_legs_and_the_verdicts(self, results):
        text = format_metastability(results)
        assert "eventual" in text
        assert "PINNED" in text
        assert "recovered" in text

    def test_json_payload_is_serializable(self, results):
        payload = metastability_report_json(results)
        encoded = json.dumps(payload, allow_nan=False)
        decoded = json.loads(encoded)
        assert decoded["figure"] == "metastability"
        assert decoded["pin_fraction"] == METASTABILITY_PIN_FRACTION
        assert decoded["recovery_fraction"] == METASTABILITY_RECOVERY_FRACTION
        assert decoded["campaign"]["phases"]
        entry = decoded["protocols"][0]
        assert entry["protocol"] == "eventual"
        assert entry["undefended"]["pinned"] is True
        assert entry["defended"]["recovered"] is True
        assert entry["undefended"]["windows"], "per-window series missing"

    def test_default_protocol_list_spans_the_spectrum(self):
        assert "eventual" in METASTABILITY_PROTOCOLS
        assert "lock-sr" in METASTABILITY_PROTOCOLS
        assert len(METASTABILITY_PROTOCOLS) == 4
