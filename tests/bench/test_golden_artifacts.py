"""Golden pins: tracing must not disturb untraced artifacts.

Two layers of bit-exactness, captured BEFORE the tracing subsystem landed:

* the full quick availability artifact payload (pre-header, as the report
  function produces it), and
* a single canonical kernel run's event/commit/latency numbers.

If either drifts, tracing (or any other change) perturbed the untraced
simulation path — the zero-overhead-when-disabled contract is broken.

The staleness artifact's quick payload (600 KB rendered) is pinned by its
SHA-256 plus a summary small enough to read and to diff in review.
"""

import hashlib
import json
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent.parent / "data"


class TestGoldenAvailability:
    def test_quick_payload_is_bit_identical(self):
        from repro.bench.__main__ import ARTIFACTS

        payload = ARTIFACTS["availability"].run(True, None).payload
        rendered = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        golden = (DATA / "golden_availability_quick.json").read_text()
        assert rendered == golden, (
            "availability --quick payload drifted from the pre-tracing "
            "golden — the untraced simulation path is no longer bit-exact"
        )


STALENESS_PIN = DATA / "golden_staleness_quick_pin.json"


def render_staleness() -> str:
    from repro.bench.__main__ import ARTIFACTS

    payload = ARTIFACTS["staleness"].run(True, None).payload
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def staleness_pin(rendered: str) -> dict:
    """SHA-256 of the rendered payload plus the numbers a person reads."""
    summary = {}
    for entry in json.loads(rendered)["protocols"]:
        row = {key: entry[key] for key in
               ("committed_total", "aborted_total", "counters",
                "partition_over_healthy_p99") if key in entry}
        row["phase_recency"] = {
            phase: {metric: stats and {q: stats[q] for q in ("count", "p50", "p99")}
                    for metric, stats in metrics.items()}
            for phase, metrics in entry["phase_recency"].items()}
        summary[entry["protocol"]] = row
    return {"sha256": hashlib.sha256(rendered.encode()).hexdigest(),
            "summary": summary}


def first_difference(pinned, actual, path="") -> str:
    """Key path of the first place two JSON values differ ('' if equal)."""
    if isinstance(pinned, dict) and isinstance(actual, dict):
        for key in list(pinned) + [k for k in actual if k not in pinned]:
            if key not in pinned or key not in actual:
                return f"{path}/{key} (only in one side)"
            found = first_difference(pinned[key], actual[key], f"{path}/{key}")
            if found:
                return found
        return ""
    return "" if pinned == actual else f"{path}: pinned {pinned!r}, got {actual!r}"


class TestGoldenStaleness:
    def test_quick_payload_matches_pin(self, tmp_path):
        rendered = render_staleness()
        actual = staleness_pin(rendered)
        pinned = json.loads(STALENESS_PIN.read_text())
        if actual != pinned:
            dump = tmp_path / "staleness_quick.json"
            dump.write_text(rendered)
            where = (first_difference(pinned["summary"], actual["summary"])
                     or "summary equal; only unpinned detail (cdfs, "
                        "timeseries, prometheus text) moved")
            pytest.fail(
                "staleness --quick payload drifted from its pin — either the "
                "metrics/probe path changed behaviour or the simulation "
                f"under it did.  First difference: {where}.  Rendered "
                f"payload: {dump}.  Deliberate change? re-pin with "
                "`PYTHONPATH=src python tests/bench/test_golden_artifacts.py`")

    def test_first_difference_names_the_key_path(self):
        pinned = {"a": {"b": 1, "c": [1, 2]}, "d": 0}
        assert first_difference(pinned, pinned) == ""
        assert first_difference(pinned, {"a": {"b": 1, "c": [1, 3]}, "d": 0}) \
            == "/a/c: pinned [1, 2], got [1, 3]"
        assert first_difference(pinned, {"a": {"b": 1, "c": [1, 2]}}) \
            == "/d (only in one side)"

    def test_partition_inflates_eventual_p99_tenfold(self):
        """The acceptance headline: under a cross-region partition the
        eventual stack's p99 t-visibility blows up by >= 10x over healthy
        operation — recency is an operating-conditions property."""
        pinned = json.loads(STALENESS_PIN.read_text())
        eventual = pinned["summary"]["eventual"]
        assert eventual["partition_over_healthy_p99"] >= 10.0


ARTIFACT_PINS = DATA / "golden_artifact_pins.json"

#: Sweep name (``artifact_sweep`` in tests/conftest.py) -> the report
#: module's (JSON builder, text formatter); None where a form does not exist.
PINNED_ARTIFACTS = {
    "tpcc_sim_healthy": ("tpcc_sim_report_json", "format_tpcc_sim"),
    "tpcc_sim_partitioned": ("tpcc_sim_report_json", "format_tpcc_sim"),
    "saturation": ("saturation_report_json", "format_saturation"),
    "metastability": ("metastability_report_json", "format_metastability"),
    "trace": ("trace_report_json", "format_trace"),
    "staleness": ("staleness_report_json", "format_staleness"),
    "elasticity": ("elasticity_report_json", "format_elasticity"),
    "figure4": (None, "format_series"),
    "figure5": (None, "format_series"),
}


def artifact_hashes(name: str, results) -> dict:
    """SHA-256 of each rendered form of one shared artifact sweep."""
    from repro.bench import report

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    def json_sha(payload) -> str:
        return sha(json.dumps(payload, indent=2, allow_nan=False))

    # The trace experiment returns (stacks, provenance); its renderers take
    # both, and the Chrome export rides beside the payload.
    args = results if name == "trace" else (results,)
    to_json, to_text = PINNED_ARTIFACTS[name]
    hashes = {"text": sha(getattr(report, to_text)(*args))}
    if to_json is not None:
        hashes["json"] = json_sha(getattr(report, to_json)(*args))
    if name == "trace":
        hashes["chrome"] = json_sha(results[1].chrome)
    return hashes


class TestGoldenArtifactPins:
    """Every artifact's JSON payload and text rendering, pinned by hash on
    the small sweeps the artifact suites already run (zero extra
    simulation): a refactor of the experiment/report layer must leave all
    of them byte-identical."""

    @pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
    def test_rendered_forms_match_pin(self, name, artifact_sweep):
        pinned = json.loads(ARTIFACT_PINS.read_text())[name]
        actual = artifact_hashes(name, artifact_sweep(name))
        where = first_difference(pinned, actual, f"/{name}")
        assert not where, (
            f"the {name} sweep no longer renders byte-identically — the "
            "simulation under it or its report function changed.  First "
            f"difference: {where}.  Deliberate change? replace its entry in "
            f"{ARTIFACT_PINS.name} with {json.dumps(actual)}")

    @pytest.mark.parametrize("name", ["fig2", "table2", "table3", "tpcc"])
    def test_static_artifact_text_matches_pin(self, name):
        """The simulation-free artifacts, as ``python -m repro.bench`` prints
        them: Tables 2 and 3, Figure 2 and the TPC-C compliance table."""
        from repro.bench.__main__ import ARTIFACTS

        text = ARTIFACTS[name].run(True, None).text
        actual = {"text": hashlib.sha256(text.encode()).hexdigest()}
        assert actual == json.loads(ARTIFACT_PINS.read_text())[name], (
            f"the {name} artifact no longer prints byte-identically:\n{text}")


class TestGoldenKernelRun:
    """The canonical causal run, observability off and on.

    Tracing and metrics are bookkeeping layered on the same events: a run
    with either (or both) switched on must execute the *identical* event
    sequence as the untraced run the golden pins — if a span or a recency
    observation perturbs the simulation, every traced artifact is suspect.
    """

    @pytest.mark.parametrize("tracing, metrics", [
        (False, False), (True, False), (False, True), (True, True)])
    def test_canonical_causal_run_matches_pin(self, tracing, metrics):
        from repro.bench.runner import RunConfig, run_workload
        from repro.hat.testbed import Scenario, build_testbed
        from repro.workloads.ycsb import YCSBConfig

        golden = json.loads((DATA / "golden_kernel_run.json").read_text())
        config = RunConfig(
            protocol="causal",
            scenario=Scenario(regions=["VA", "OR"], servers_per_cluster=2,
                              seed=0, tracing=tracing, metrics=metrics),
            workload=YCSBConfig(),
            duration_ms=400.0,
            seed=0,
        )
        testbed = build_testbed(config.scenario)
        stats = run_workload(config, testbed=testbed)
        assert testbed.env.events_executed == golden["events_executed"]
        assert stats.committed == golden["committed"]
        assert stats.aborted == golden["aborted"]
        assert stats.throughput_txn_s == golden["throughput_txn_s"]
        assert stats.latency.mean == golden["mean_latency_ms"]
        assert stats.latency.p95 == golden["p95_latency_ms"]
        # The instrumentation must actually have been on, not silently off.
        if tracing:
            assert len(testbed.tracer.spans) > stats.committed
        if metrics:
            registry = testbed.metrics
            assert registry.counter_total("staleness_installs_total") > 0
            assert registry.counter_total("staleness_reads_total") > 0


if __name__ == "__main__":
    STALENESS_PIN.write_text(
        json.dumps(staleness_pin(render_staleness()), indent=2) + "\n")
    print(f"re-pinned {STALENESS_PIN}")
