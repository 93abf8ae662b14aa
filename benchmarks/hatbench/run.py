#!/usr/bin/env python3
"""hatbench runner: one command for every metric, check and result file.

Full protocol (what ``results/BENCH_*.json`` were produced with)::

    python benchmarks/hatbench/run.py [--seed 0] [--repeats 5] [--out DIR]
                                      [--workload NAME] [--scale F]

runs every workload ``--repeats`` times (each repeat in a fresh child
interpreter, never two at once), one traced repeat under cProfile, one
obs-off repeat of the obs-on workload and the layer ceilings; prints every
metric by name with its unit, checks the outputs, writes ``hatbench.json``
and ``trace_<workload>.json`` into ``--out`` and exits non-zero when a check
fails.

Driver protocol (the ``BENCHMARK.json`` contract)::

    python benchmarks/hatbench/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

measures one workload for about ``S`` seconds (``round(S / nominal)``
repeats, at least two unless the machine is too slow for the wall budget) and
prints one JSON line: the end-to-end medians with
``--trace 0``, the per-layer ledger with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The repo is not installed: the benchmark finds itself and the program by
# path, so the one command needs no PYTHONPATH.
for _path in (str(ROOT / "src"), str(HERE.parent)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from hatbench import spec  # noqa: E402

#: A repeat whose wall time exceeds its CPU time by this factor waited on
#: the machine, not on the program: flagged, never dropped.
DISTURBED_WALL_TO_CPU = 1.2
#: ``setup_s`` samples per driver run (extra ones are set-up-only children).
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
#: A driver run starts another repeat only while the repeats so far plus one
#: more like them fit in this many times ``--seconds`` of wall time.
DRIVER_WALL_BUDGET = 1.75

#: ``launch(module, **options)`` -> the JSON record that module printed.
Launcher = Callable[..., Dict[str, object]]


class BenchError(RuntimeError):
    """The benchmark could not produce a result (a child failed)."""


# -- launching repeats ---------------------------------------------------------

def spawn(module: str, **options) -> Dict[str, object]:
    """Run ``python -m module --option value ...`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", module]
    for option, value in {**options, "spawned_at": time.time()}.items():
        command += [f"--{option.replace('_', '-')}", repr(value)
                    if isinstance(value, float) else str(value)]
    try:
        done = subprocess.run(command, env=env, cwd=str(ROOT),
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{module} {options} timed out") from error
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{module} {options} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def in_process(module: str, **options) -> Dict[str, object]:
    """The same repeat without a child (the smoke test; RSS is then shared)."""
    if module == "hatbench.ceilings":
        from hatbench.ceilings import run_ceilings
        return run_ceilings(**options)
    from hatbench.child import run_repeat
    return run_repeat(**options)


def ceiling_options(seed: int, scale: float) -> Dict[str, object]:
    # Quick local runs shrink the ceilings with everything else.
    return {"seed": seed, "sample_s": 0.2 * min(1.0, scale)}


# -- statistics ------------------------------------------------------------------

def summarize(values: Sequence[float], unit: str) -> Dict[str, object]:
    """Median, quartiles and sample count of one metric's repeats."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"unit": unit, "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values), "values": list(values)}


def end_to_end(plain: List[Dict], setups: Sequence[float]) -> Dict[str, Dict]:
    table = {}
    for name, unit, _better, _bound in spec.END_TO_END:
        values = (list(setups) if name == "setup_s"
                  else [r["end_to_end"][name] for r in plain])
        table[name] = summarize(values, unit)
    return table


def per_layer(plain: List[Dict], traced: Dict,
              obs_off: Optional[Dict]) -> Dict[str, float]:
    """Families 1 and 2 of the ledger for one workload."""
    first = plain[0]
    cpu_s = statistics.median(r["host_cpu_s"] for r in plain)
    ledger = dict(first["counts"])
    ledger["adya.audit_host_s"] = statistics.median(
        r["audit_host_s"] for r in plain)
    ledger["bench.host_cpu_s"] = cpu_s
    ledger["bench.events_per_host_s"] = first["counts"]["sim.events"] / cpu_s
    ledger["bench.wall_to_cpu_ratio"] = statistics.median(
        r["host_wall_s"] / r["host_cpu_s"] for r in plain)
    ledger["bench.host_speed"] = statistics.median(
        r["host_speed"] for r in plain)
    ledger.update(traced["profile"])
    ledger["trace.overhead_ratio"] = traced["host_cpu_s"] / cpu_s
    # 0 = not measured: only the obs-on workload has an obs-off twin.  Both
    # sides in reference seconds, so the machine's drift between the two
    # children cancels.
    ledger["obs.overhead_ratio"] = (
        statistics.median(r["host_reference_s"] for r in plain)
        / obs_off["host_reference_s"] if obs_off is not None else 0.0)
    return {name: ledger[name] for name, _, _ in spec.PER_LAYER
            if name in ledger}


# -- output checks ---------------------------------------------------------------

def run_checks(name: str, plain: List[Dict], traced: Optional[Dict],
               obs_off: Optional[Dict]) -> List[List[object]]:
    """Per-workload checks: the children's own plus the cross-repeat ones."""
    first = plain[0]
    checks = list(first["checks"]) + [
        [f"{check[0]}[repeat {index}]", check[1], check[2]]
        for index, record in enumerate(plain[1:], 1)
        for check in record["checks"] if not check[1]]
    twins = plain[1:] + ([traced] if traced is not None else [])
    differing = sorted({
        metric for other in twins for metric in spec.SIM_CLOCK
        if other["end_to_end"][metric] != first["end_to_end"][metric]} | {
        metric for other in twins for metric, value in first["counts"].items()
        if other["counts"][metric] != value})
    checks.append(["sim_clock_and_counts_identical_across_repeats",
                   not differing,
                   f"{len(twins) + 1} runs compared; differing: {differing}"])
    if traced is not None:
        shares = sum(traced["profile"][f"{layer}.self_share"]
                     for layer in spec.LAYERS)
        checks.append(["trace_shares_sum_to_one", abs(shares - 1.0) <= 0.01,
                       f"sum={shares:.6f}"])
    if obs_off is not None:
        on, off = first["counts"]["sim.events"], obs_off["counts"]["sim.events"]
        checks.append(["obs_on_off_event_counts_equal",
                       on == off and first["committed"] == obs_off["committed"],
                       f"events on={on} off={off}"])
    return checks


def cross_checks(workloads: Dict[str, Dict]) -> List[List[object]]:
    """Checks that need two workloads of one full run (the paper's shape)."""
    def median(name: str, metric: str) -> float:
        return workloads[name]["end_to_end"][metric]["median"]

    checks = []
    if {"ycsb_master_geo5_read95", "ycsb_eventual_2x2"} <= set(workloads):
        master = median("ycsb_master_geo5_read95", "sim_latency_p50_ms")
        eventual = median("ycsb_eventual_2x2", "sim_latency_p50_ms")
        checks.append(["master_wan_p50_at_least_10x_eventual",
                       master >= 10.0 * eventual,
                       f"master={master:.3f} ms eventual={eventual:.3f} ms "
                       f"ratio={master / eventual:.1f}x (base eventual)"])
    if {"ycsb_mav_2x2", "ycsb_eventual_2x2"} <= set(workloads):
        mav = median("ycsb_mav_2x2", "events_per_committed_txn")
        eventual = median("ycsb_eventual_2x2", "events_per_committed_txn")
        checks.append(["mav_events_per_txn_above_eventual", mav > eventual,
                       f"mav={mav:.2f} eventual={eventual:.2f}"])
    return checks


# -- the two protocols -----------------------------------------------------------

def trace_file(name: str, seed: int, scale: float, traced: Dict,
               ledger: Dict[str, float]) -> Dict[str, object]:
    """``trace_<workload>.json``: the spans and the per-layer table."""
    return {
        "workload": name, "seed": seed, "scale": scale,
        "clock": "host: perf_counter seconds (start_s/end_s), "
                 "process_time seconds (cpu_s)",
        "spans": traced["spans"],
        "layers": {layer: {"self_share": ledger[f"{layer}.self_share"],
                           "calls": ledger[f"{layer}.calls"]}
                   for layer in spec.LAYERS},
        "sim.heap_pushes": ledger["sim.heap_pushes"],
        "trace.overhead_ratio": ledger["trace.overhead_ratio"],
        "traced_host_cpu_s": traced["host_cpu_s"],
        "untraced_host_cpu_s": ledger["bench.host_cpu_s"],
    }


def repeater(launch: Launcher, name: str, seed: int,
             scale: float) -> Callable[[str], Dict]:
    """``repeat(mode)``: one more repeat of this workload."""
    def repeat(mode: str) -> Dict:
        return launch("hatbench.child", workload=name, seed=seed, scale=scale,
                      mode=mode)
    return repeat


def trace_workload(name: str, seed: int, scale: float, plain: List[Dict],
                   repeat: Callable[[str], Dict], out: Path):
    """The traced repeat (and obs-off twin): ledger, both records, the file."""
    traced = repeat("profile")
    obs_off = repeat("obs_off") if name in spec.OBS_ON else None
    ledger = per_layer(plain, traced, obs_off)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"trace_{name}.json").write_text(json.dumps(
        trace_file(name, seed, scale, traced, ledger), indent=1) + "\n")
    return ledger, traced, obs_off


def measure_workload(name: str, seed: int, scale: float, repeats: int,
                     launch: Launcher, out: Path) -> Dict[str, object]:
    """The full protocol for one workload."""
    repeat = repeater(launch, name, seed, scale)
    plain = [repeat("plain") for _ in range(repeats)]
    ledger, traced, obs_off = trace_workload(name, seed, scale, plain, repeat,
                                             out)
    return {
        "end_to_end": end_to_end(plain, [r["setup_s"] for r in plain]),
        "latency_samples": plain[0]["latency_samples"],
        "attempted": sum(r["attempted"] for r in plain),
        "failed": sum(r["failed"] for r in plain),
        "disturbed_repeats": sum(
            r["host_wall_s"] / r["host_cpu_s"] > DISTURBED_WALL_TO_CPU
            for r in plain),
        "per_layer": {metric: {"value": value, "unit": spec.UNITS[metric]}
                      for metric, value in ledger.items()},
        "checks": run_checks(name, plain, traced, obs_off),
    }


def render(result: Dict[str, object]) -> str:
    """Every metric by name with its unit, then the checks."""
    lines = []
    for name, data in result["workloads"].items():
        lines.append(f"== {name}")
        for metric, s in data["end_to_end"].items():
            lines.append(
                f"  {metric:<28} {s['median']:>14.6g} {s['unit']:<6} "
                f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
        lines.append(f"  (p99 over {data['latency_samples']} committed "
                     f"samples; {data['disturbed_repeats']} disturbed repeats)")
        for metric, entry in data["per_layer"].items():
            lines.append(f"    {metric:<36} {entry['value']:>16.6g} "
                         f"{entry['unit']}")
    lines.append("== ceilings")
    for metric, entry in result["ceilings"].items():
        lines.append(f"    {metric:<36} {entry['value']:>16.6g} {entry['unit']}")
    lines.append("== checks")
    for scope, checks in [(n, d["checks"]) for n, d in
                          result["workloads"].items()] + [
                              ("cross-workload", result["checks"])]:
        for check, passed, detail in checks:
            lines.append(f"  {'ok  ' if passed else 'FAIL'} {scope}: "
                         f"{check} ({detail})")
    return "\n".join(lines)


def run_full(args, launch: Launcher) -> int:
    from repro.bench.provenance import git_sha  # the program's own stamp

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    out = Path(args.out)
    workloads = {name: measure_workload(name, args.seed, args.scale,
                                        args.repeats, launch, out)
                 for name in names}
    ceilings = launch("hatbench.ceilings",
                      **ceiling_options(args.seed, args.scale))
    result = {
        "benchmark": "hatbench",
        "provenance": {
            "seed": args.seed, "scale": args.scale, "repeats": args.repeats,
            "git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "in_process": args.in_process,
            # Sizes are the contract: only scale-1 fresh-child runs of all
            # six workloads compare across commits.
            "comparable": (args.scale == 1.0 and not args.in_process
                           and not args.workload),
        },
        "workloads": workloads,
        "ceilings": {metric: {"value": value, "unit": spec.UNITS[metric]}
                     for metric, value in ceilings.items()},
        "checks": cross_checks(workloads),
    }
    result["ok"] = all(check[1] for data in workloads.values()
                       for check in data["checks"]) and all(
                           check[1] for check in result["checks"])
    (out / "hatbench.json").write_text(json.dumps(result, indent=1) + "\n")
    print(render(result))
    print(f"wrote {out / 'hatbench.json'}; "
          f"{'all checks passed' if result['ok'] else 'CHECKS FAILED'}")
    return 0 if result["ok"] else 1


def run_driver(args, launch: Launcher) -> int:
    """One workload, one JSON line (see BENCHMARK.json)."""
    name, seed, scale = args.workload, args.seed, args.scale
    repeat = repeater(launch, name, seed, scale)
    if args.trace:
        plain = [repeat("plain")]
        ledger, traced, obs_off = trace_workload(name, seed, scale, plain,
                                                 repeat, Path(args.out))
        ledger.update(launch("hatbench.ceilings",
                             **ceiling_options(seed, scale)))
        values = {metric: ledger[metric] for metric, _, _ in spec.PER_LAYER}
    else:
        # About ``--seconds`` of measurement: two repeats or more, which must
        # agree exactly on everything sim-clock.  On a machine in a slow phase
        # the wall budget stops the run early (one repeat at the least), so
        # that all the driver's runs together stay inside its time limit.
        repeats = max(2, round(args.seconds / spec.NOMINAL_HOST_S[name]))
        started = time.perf_counter()
        plain = []
        for _ in range(repeats):
            elapsed = time.perf_counter() - started
            if plain and elapsed * (1 + 1 / len(plain)) > (
                    DRIVER_WALL_BUDGET * args.seconds):
                break
            plain.append(repeat("plain"))
        traced = obs_off = None
        setups = [r["setup_s"] for r in plain]
        while len(setups) < SETUP_SAMPLES:
            setups.append(repeat("setup_only")["setup_s"])
        values = {metric: summary["median"]
                  for metric, summary in end_to_end(plain, setups).items()}
    checks = run_checks(name, plain, traced, obs_off)
    for check, passed, detail in checks:
        if not passed:
            print(f"FAIL {name}: {check} ({detail})", file=sys.stderr)
    print(json.dumps({
        "correct": all(check[1] for check in checks),
        "attempted": sum(r["attempted"] for r in plain),
        "failed": sum(r["failed"] for r in plain),
        "metrics": {metric: {"value": value, "unit": spec.UNITS[metric]}
                    for metric, value in values.items()},
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=0,
                        help="the only input: same seed, same inputs")
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every simulated duration "
                             "(results with scale != 1 are not comparable)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for hatbench.json and trace files")
    parser.add_argument("--in-process", action="store_true",
                        help="no child interpreters (smoke test only)")
    parser.add_argument("--seconds", type=float,
                        help="driver protocol: seconds one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver protocol: 0 end-to-end, 1 per-layer")
    args = parser.parse_args(argv)
    if args.scale <= 0 or args.repeats < 1:
        parser.error("--scale must be positive and --repeats at least 1")
    launch = in_process if args.in_process else spawn
    driver = args.seconds is not None or args.trace is not None
    if driver and (args.workload is None or args.seconds is None
                   or args.seconds <= 0):
        parser.error("the driver protocol needs --workload and --seconds > 0")
    try:
        return run_driver(args, launch) if driver else run_full(args, launch)
    except BenchError as error:
        print(f"hatbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
