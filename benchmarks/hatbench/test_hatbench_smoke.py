"""Smoke test: the benchmark runs, names every metric, and repeats exactly.

Every workload at ``--scale 0.02`` in this process (no child interpreters),
two repeats plus the traced run — a few seconds.  Host-clock values are not
asserted on: only that they exist, carry their unit, and that everything on
the simulated clock is identical between the repeats.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(HERE.parent) not in sys.path:
    sys.path.insert(0, str(HERE.parent))

from hatbench import run, spec  # noqa: E402


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    out = tmp_path_factory.mktemp("hatbench")
    status = run.main(["--scale", "0.02", "--repeats", "2", "--in-process",
                       "--out", str(out)])
    assert status == 0, "an output check failed (see the captured table)"
    return json.loads((out / "hatbench.json").read_text()), out


def test_every_named_metric_is_reported_with_its_unit(result):
    payload, _ = result
    assert list(payload["workloads"]) == list(spec.WORKLOADS)
    ceilings = payload["ceilings"]
    for name, data in payload["workloads"].items():
        for metric, unit, _better, _bound in spec.END_TO_END:
            summary = data["end_to_end"][metric]
            assert summary["unit"] == unit, (name, metric)
            assert summary["n"] == 2 and summary["median"] > 0, (name, metric)
        for metric, unit, _better in spec.PER_LAYER:
            entry = (ceilings if metric in spec.CEILINGS
                     else data["per_layer"])[metric]
            assert entry["unit"] == unit, (name, metric)
            assert isinstance(entry["value"], (int, float)), (name, metric)


def test_sim_clock_metrics_are_identical_between_two_runs(result):
    payload, _ = result
    for name, data in payload["workloads"].items():
        for metric in spec.SIM_CLOCK:
            first, second = data["end_to_end"][metric]["values"]
            assert first == second, (name, metric)


def test_a_traced_run_exists_for_every_workload(result):
    payload, out = result
    assert payload["provenance"]["comparable"] is False  # scale != 1
    for name in spec.WORKLOADS:
        trace = json.loads((out / f"trace_{name}.json").read_text())
        names = {span["name"] for span in trace["spans"]}
        assert {"setup.import", "setup.build_testbed", "setup.preload",
                "run.measured", "post.audit", "post.checks"} <= names
        shares = sum(layer["self_share"] for layer in trace["layers"].values())
        assert shares == pytest.approx(1.0, abs=0.01)
        assert trace["trace.overhead_ratio"] > 0


def test_benchmark_json_matches_the_code():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in committed["workloads"])
