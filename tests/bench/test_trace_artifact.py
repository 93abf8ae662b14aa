"""Integration tests for the trace artifact: critical paths, provenance,
Chrome export, and sequential-vs-parallel determinism.

One small-but-real experiment is shared module-wide (~a few seconds);
every test inspects a different face of its output.
"""

import json

import pytest

from repro.bench.experiments import TRACE_PROTOCOLS
from repro.bench.report import format_trace, trace_report_json
from repro.obs.critical_path import SEGMENTS

PROTOCOLS = ("eventual", "causal")


@pytest.fixture(scope="module")
def experiment(artifact_sweep):
    return artifact_sweep("trace")


class TestStacks:
    def test_covers_protocol_by_condition(self, experiment):
        stacks, _ = experiment
        seen = {(s.protocol, s.condition) for s in stacks}
        expected = {(p, c) for p in PROTOCOLS
                    for c in ("healthy", "partitioned")}
        assert seen == expected
        for stack in stacks:
            assert stack.stats.committed > 0, (stack.protocol,
                                               stack.condition)
            assert stack.traces > 0 and stack.spans > 0

    def test_p99_breakdown_sums_to_p99_latency(self, experiment):
        stacks, _ = experiment
        for stack in stacks:
            path = stack.critical_path
            assert set(path["p99_breakdown_ms"]) == set(SEGMENTS)
            assert sum(path["p99_breakdown_ms"].values()) == pytest.approx(
                path["p99_latency_ms"]), (stack.protocol, stack.condition)

    def test_only_partitioned_runs_carry_fault_windows(self, experiment):
        stacks, _ = experiment
        for stack in stacks:
            if stack.condition == "partitioned":
                assert stack.fault_windows, stack.protocol
                assert stack.narration
            else:
                assert not stack.fault_windows, stack.protocol


class TestProvenance:
    def test_anomalies_join_to_traces_and_faults(self, experiment):
        _, provenance = experiment
        joined = provenance.provenance
        assert joined["anomalies_joined"] >= 1
        assert joined["anomalies_under_fault"] >= 1
        for entry in joined["entries"]:
            assert len(entry["traces"]) >= 2  # both sides of the anomaly
            assert entry["anomaly"]

    def test_chrome_trace_is_perfetto_shaped(self, experiment):
        _, provenance = experiment
        chrome = provenance.chrome
        events = chrome["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] in ("X", "M", "i")
            if event["ph"] == "X":
                for required in ("name", "pid", "tid", "ts", "dur"):
                    assert required in event, event
                assert event["ts"] >= 0 and event["dur"] >= 0
        # Loadable: serializes strictly, no NaN/Inf.
        json.dumps(chrome, allow_nan=False)

    def test_exported_traces_are_bounded(self, experiment):
        _, provenance = experiment
        assert 0 < provenance.exported_traces <= provenance.spans


class TestReportForms:
    def test_text_table(self, experiment):
        stacks, provenance = experiment
        text = format_trace(stacks, provenance)
        for segment in SEGMENTS:
            assert segment in text
        assert "anomal" in text.lower()

    def test_json_payload(self, experiment):
        stacks, provenance = experiment
        payload = trace_report_json(stacks, provenance)
        assert payload["figure"] == "trace"
        assert payload["segments"] == list(SEGMENTS)
        assert len(payload["stacks"]) == len(stacks)
        # The anomaly join lives under anomaly_provenance: the bare
        # "provenance" key is reserved for the CLI artifact header.
        assert "provenance" not in payload
        assert payload["anomaly_provenance"]["anomalies_joined"] >= 1
        json.dumps(payload, allow_nan=False)


class TestDeterminism:
    def test_parallel_equals_sequential(self, experiment, artifact_sweep):
        stacks, provenance = experiment
        again_stacks, again_provenance = artifact_sweep("trace", jobs=2)
        assert trace_report_json(stacks, provenance) == trace_report_json(
            again_stacks, again_provenance)
        assert provenance.chrome == again_provenance.chrome


def test_default_protocol_roster():
    assert TRACE_PROTOCOLS == ("eventual", "causal", "master", "lock-sr")
