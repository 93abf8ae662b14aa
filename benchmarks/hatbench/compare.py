#!/usr/bin/env python3
"""Compare two hatbench result files: ``compare.py A.json B.json``.

For every workload x end-to-end metric prints both medians with their
quartiles, the ratio B/A (base A), and a verdict against the metric's bound
in ``BENCHMARK.json``:

* ``ok``          B's median is no worse than A's by more than the bound;
* ``regressed``   it is worse by more than the bound;
* ``unresolved``  either side's quartile spread is wider than the bound, so
                  the runs cannot tell (reported, never read as "unchanged").

Sim-clock metrics and exact per-layer counts are compared with ``==``: for
one seed and one program they are byte-equal, so ``changed`` means the
program's behaviour changed.  Exits 1 if anything regressed or an exact
value changed, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from hatbench import spec  # noqa: E402

BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"


def spread(summary: Dict[str, float]) -> float:
    """Quartile distance as a share of the median."""
    return abs(summary["q3"] - summary["q1"]) / abs(summary["median"])


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(name: str, a: Dict, b: Dict, better: str, bound: float) -> str:
    if name in spec.SIM_CLOCK and a["median"] == b["median"]:
        return "ok (==)"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    if worse_by(a["median"], b["median"], better) > bound:
        return "regressed"
    return "changed" if name in spec.SIM_CLOCK else "ok"


def compare(a: Dict, b: Dict, bounds: List[Dict]) -> Tuple[List[str], int]:
    """The report lines and how many rows regressed or changed."""
    lines, bad = [], 0
    for side, result in (("A", a), ("B", b)):
        p = result["provenance"]
        lines.append(f"{side}: git {p['git_sha'][:12]} seed {p['seed']} "
                     f"scale {p['scale']} repeats {p['repeats']} python "
                     f"{p['python']} nproc {p['nproc']}"
                     f"{'' if p['comparable'] else '  (NOT COMPARABLE)'}")
    if a["provenance"]["seed"] != b["provenance"]["seed"]:
        lines.append("note: seeds differ, so sim-clock metrics and counts "
                     "are different inputs, not a behaviour change")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            lines.append(f"== {workload}: missing from B")
            continue
        lines.append(f"== {workload}")
        lines.append(f"  {'metric':<26} {'A median [q1, q3]':<38} "
                     f"{'B median [q1, q3]':<38} {'B/A':>8}  bound  verdict")
        ea = a["workloads"][workload]["end_to_end"]
        eb = b["workloads"][workload]["end_to_end"]
        for entry in bounds:
            name = entry["name"]
            sa, sb = ea[name], eb[name]
            cells = [f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
                     for s in (sa, sb)]
            outcome = verdict(name, sa, sb, entry["better"], entry["bound"])
            bad += outcome in ("regressed", "changed")
            lines.append(
                f"  {name:<26} {cells[0]:<38} {cells[1]:<38} "
                f"{sb['median'] / sa['median']:>8.4f}  {entry['bound']:<5}  "
                f"{outcome}")
        la = a["workloads"][workload]["per_layer"]
        lb = b["workloads"][workload]["per_layer"]
        changed = [name for name in spec.EXACT_PER_LAYER
                   if name in la and la[name]["value"] != lb[name]["value"]]
        bad += len(changed)
        lines.append(f"  exact per-layer counts: "
                     f"{len([n for n in spec.EXACT_PER_LAYER if n in la])} "
                     f"compared with ==, "
                     + (f"changed: {changed}" if changed else "all equal"))
    return lines, bad


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    bounds = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    lines, bad = compare(a, b, bounds)
    print("\n".join(lines))
    print(f"{bad} regressed or changed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
