"""Command-line entry point: regenerate paper artifacts from the terminal.

Usage::

    python -m repro.bench --list
    python -m repro.bench table1 table3 fig2
    python -m repro.bench fig4 --quick

Each artifact name corresponds to one table or figure of the paper; the
command prints the same report the benchmark suite produces.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.bench import experiments, report
from repro.bench.provenance import provenance_header
from repro.net.measurement import (
    cross_region_mean_table,
    format_table_1c,
    run_ping_study,
)
from repro.taxonomy.models import (
    FIGURE_2_EDGES,
    availability_summary,
    strongest_hat_combination,
)
from repro.taxonomy.survey import format_table_2
from repro.workloads.tpcc_analysis import hat_compliance_table


class Rendered(NamedTuple):
    """What every artifact returns: the printed report, its JSON form (if it
    has one), and any files written beside ``<artifact>.json``."""

    text: str
    payload: Optional[dict] = None
    extra_files: Dict[str, dict] = {}


@dataclass(frozen=True)
class Artifact:
    """One row of :data:`ARTIFACTS`."""

    #: ``run(quick, jobs)`` regenerates the artifact.
    run: Callable[[bool, Optional[int]], Rendered]
    #: Whether ``run`` returns a payload ``--json`` can write.
    has_json: bool = False
    #: A ``_sweep`` row's ``(experiment, its --full overrides)``.
    full: Optional[Tuple[Callable, dict]] = None


def _sweep(experiment: Callable, text: Callable, payload: Optional[Callable] = None,
           *, quick: dict, full: dict) -> Artifact:
    """An artifact that is one experiment call rendered one way.

    ``quick`` / ``full`` are the keyword overrides the two parameterisations
    pass to ``experiment``; what neither names keeps the experiment's own
    default.
    """
    def run(quick_mode: bool, jobs: Optional[int] = None) -> Rendered:
        results = experiment(jobs=jobs, **(quick if quick_mode else full))
        return Rendered(text(results),
                        payload(results) if payload is not None else None)

    return Artifact(run, has_json=payload is not None, full=(experiment, full))


def _static(title: str, body: Callable[[bool], str]) -> Artifact:
    """A simulation-free artifact: ``title`` over ``body(quick)``."""
    return Artifact(lambda quick, jobs=None: Rendered(f"{title}\n{body(quick)}"))


def _table1(quick: bool) -> str:
    study, _topology, _model = run_ping_study(samples_per_link=200 if quick else 2000)
    return format_table_1c(cross_region_mean_table(study))


def _fig2(quick: bool) -> str:
    lines = [f"  {a} -> {b}" for a, b in sorted(FIGURE_2_EDGES)]
    lines.append(f"strongest HAT combination: "
                 f"{', '.join(sorted(strongest_hat_combination()))}")
    return "\n".join(lines)


def _composite_text(points) -> str:
    return ("Composite guarantee stacks (registry specs) on VA+OR\n"
            + report.format_latency_and_throughput(points))


def _tpcc_sim(quick: bool, jobs=None) -> Rendered:
    """TPC-C executed through the cluster, audited for Section 6.2 anomalies.

    Two passes: every protocol on a healthy network, then the HAT/locking
    extremes under the canonical region-partition campaign — the HAT side
    keeps serving (and keeps colliding on order ids), the serializable
    baseline goes dark but stays clean.
    """
    healthy = experiments.tpcc_sim_experiment(
        duration_ms=1_200.0 if quick else 4_000.0, jobs=jobs)
    phase_ms = 800.0 if quick else 2_000.0
    partitioned = experiments.tpcc_sim_experiment(
        protocols=("eventual", "causal", "lock-sr"), partition=True,
        baseline_ms=phase_ms, partition_ms=2 * phase_ms, recovery_ms=phase_ms,
        jobs=jobs)
    text = (report.format_tpcc_sim(healthy)
            + "\n\nUnder the canonical region-partition campaign:\n"
            + report.format_tpcc_sim(partitioned))
    return Rendered(text, {
        "figure": "tpcc-sim",
        "healthy": report.tpcc_sim_report_json(healthy),
        "partitioned": report.tpcc_sim_report_json(partitioned),
    })


def _trace(quick: bool, jobs=None) -> Rendered:
    """Tracing artifact: per-stack p99 critical-path breakdown + provenance.

    Two legs: every TRACE_PROTOCOLS stack traced healthy and under the
    canonical partition campaign (arrival-to-commit latency decomposed
    into queueing / RTT / service / retry / lock-wait / client), then a
    traced contended TPC-C run whose audited anomalies are joined back to
    the claimant transactions' traces and the fault windows they
    overlapped.  Beside ``trace.json`` the bench writes
    ``trace_events.json`` — Chrome trace-event JSON, loadable at
    https://ui.perfetto.dev.
    """
    overrides = (dict(duration_ms=1_200.0, baseline_ms=600.0,
                      partition_ms=1_200.0, recovery_ms=600.0, key_count=2_000)
                 if quick else {})
    stacks, provenance = experiments.trace_experiment(jobs=jobs, **overrides)
    return Rendered(report.format_trace(stacks, provenance),
                    report.trace_report_json(stacks, provenance),
                    {"trace_events.json": provenance.chrome})


#: Every artifact, in ``--list`` order.  A ``_sweep`` row is one experiment
#: with its quick and full overrides, a ``_static`` row needs no simulation,
#: and the two-pass artifacts (``tpcc-sim``, ``trace``) are plain functions.
ARTIFACTS: Dict[str, Artifact] = {
    "table1": _static("Table 1c: mean cross-region RTTs (ms)", _table1),
    "table2": _static("Table 2: default and maximum isolation levels",
                      lambda quick: format_table_2()),
    "table3": _static("Table 3: availability classification",
                      lambda quick: availability_summary().as_table()),
    "fig2": _static("Figure 2: model strength lattice (weaker -> stronger)",
                    _fig2),
    "fig3": _sweep(
        experiments.figure3_geo_replication,
        report.format_latency_and_throughput,
        quick=dict(client_counts=(2, 6), duration_ms=400.0,
                   servers_per_cluster=2),
        full=dict(client_counts=(4, 16, 48), duration_ms=2000.0,
                  servers_per_cluster=5)),
    "fig4": _sweep(
        experiments.figure4_transaction_length,
        partial(report.format_series, value="throughput_ops_s"),
        quick=dict(lengths=(1, 8, 32), duration_ms=400.0),
        full=dict(duration_ms=1500.0)),
    "fig5": _sweep(
        experiments.figure5_write_proportion,
        partial(report.format_series, value="throughput_txn_s"),
        quick=dict(write_proportions=(0.0, 0.5, 1.0), duration_ms=400.0),
        full=dict(duration_ms=1500.0)),
    "fig6": _sweep(
        experiments.figure6_scale_out,
        partial(report.format_series, value="throughput_txn_s"),
        quick=dict(servers_per_cluster_values=(2, 4, 8), duration_ms=400.0),
        full=dict(duration_ms=1200.0)),
    "composite": _sweep(
        experiments.composite_guarantee_sweep, _composite_text,
        quick=dict(client_counts=(2,), duration_ms=300.0),
        full=dict(client_counts=(2, 8, 16), duration_ms=1500.0)),
    "tpcc": _static("Section 6.2: TPC-C HAT compliance",
                    lambda quick: hat_compliance_table()),
    "tpcc-sim": Artifact(_tpcc_sim, has_json=True),
    # Timeline artifact: HAT stacks serving through a region partition.
    "availability": _sweep(
        experiments.availability_experiment,
        report.format_availability, report.availability_report_json,
        quick=dict(protocols=("causal", "master"), baseline_ms=1_500.0,
                   partition_ms=3_000.0, recovery_ms=1_500.0),
        full={}),
    # Availability and data movement through churn: baseline, live
    # scale-out, a region partition with a second rebalance inside it,
    # scale-in, recovery.  Quick halves every phase and the window.
    "elasticity": _sweep(
        experiments.elasticity_experiment,
        report.format_elasticity, report.elasticity_report_json,
        quick=dict(protocols=("eventual", "causal", "master"),
                   baseline_ms=1_000.0, scale_out_ms=1_250.0,
                   partition_ms=2_000.0, scale_in_ms=1_250.0,
                   recovery_ms=750.0, window_ms=250.0),
        full={}),
    # Open-loop saturation: the knee, tail latency, drain time — 10^5
    # logical users even in quick mode, at O(pool) memory.
    "saturation": _sweep(
        experiments.saturation_experiment,
        report.format_saturation, report.saturation_report_json,
        quick=dict(users=100_000, ramp_peak_rate_s=500.0, ramp_ms=2_500.0,
                   baseline_ms=1_000.0, partition_ms=2_000.0,
                   recovery_ms=4_000.0, window_ms=250.0),
        full={}),
    # Staleness observatory: t-visibility / k-staleness through healthy ->
    # partition -> post-heal rebalance.  Quick halves phases and window.
    "staleness": _sweep(
        experiments.staleness_experiment,
        report.format_staleness, report.staleness_report_json,
        quick=dict(healthy_ms=1_000.0, partition_ms=2_000.0,
                   rebalance_ms=2_000.0, window_ms=250.0),
        full={}),
    # The same partition trigger with and without the overload defenses;
    # the experiment's defaults are the quick scale, full doubles them.
    "metastability": _sweep(
        experiments.metastability_experiment, report.format_metastability,
        report.metastability_report_json,
        quick={},
        full=dict(baseline_ms=3_000.0, partition_ms=4_000.0,
                  recovery_ms=12_000.0, window_ms=500.0)),
    "trace": Artifact(_trace, has_json=True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate tables and figures from the HAT paper.",
    )
    parser.add_argument("artifacts", nargs="*",
                        help=f"artifacts to regenerate ({', '.join(ARTIFACTS)})")
    parser.add_argument("--list", action="store_true", help="list artifact names")
    parser.add_argument("--quick", action="store_true", default=True,
                        help="use the small/fast parameterisation (default)")
    parser.add_argument("--full", dest="quick", action="store_false",
                        help="use the longer, higher-fidelity sweeps")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="run swept simulations across N worker "
                             "processes (default: sequential); results are "
                             "bit-identical to a sequential run")
    with_json = ", ".join(name for name, artifact in ARTIFACTS.items()
                          if artifact.has_json)
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="also write <DIR>/<artifact>.json for artifacts "
                             f"with a JSON form ({with_json})")
    return parser


def _write_artifact(directory: str, filename: str, payload: dict,
                    header: dict) -> str:
    """Write one artifact JSON with the provenance header prepended.

    The header is injected here — centrally, at write time — so the
    payloads the report functions return stay byte-identical to what the
    golden-artifact regression tests pin.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, filename)
    with open(path, "w") as handle:
        json.dump({"provenance": header, **payload}, handle, indent=2,
                  allow_nan=False)
    return path


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list or not args.artifacts:
        print("available artifacts:", ", ".join(ARTIFACTS))
        return 0
    for name in args.artifacts:
        if name not in ARTIFACTS:
            print(f"unknown artifact {name!r}; use --list to see the options",
                  file=sys.stderr)
            return 2
        print(f"\n===== {name} =====")
        rendered = ARTIFACTS[name].run(args.quick, args.jobs)
        print(rendered.text)
        if args.json and rendered.payload is not None:
            header = provenance_header(name, quick=args.quick, jobs=args.jobs)
            files = {f"{name}.json": rendered.payload, **rendered.extra_files}
            for filename, payload in files.items():
                path = _write_artifact(args.json, filename, payload, header)
                print(f"(wrote {path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
