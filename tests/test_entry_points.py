"""What ships is what an entry point imports.

Production has three doors: ``python -m repro.bench``, ``examples/*.py`` and
``benchmarks/hatbench``.  A module under ``src/repro`` that none of them
imports is either waiting for a caller a ROADMAP item names, or dead.  And a
door imports only what it runs: a hatbench child's set-up is measured.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules no door imports yet, each with the ROADMAP item that will.
RESERVED = {
    "repro.bench.ablations": "item 8: the paper-fidelity scorecard calls it",
}

IMPORT_THE_DOORS = """
import importlib, importlib.util, pathlib, sys
root = pathlib.Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
import repro.bench.__main__
for script in sorted((root / "examples").glob("*.py")):
    spec = importlib.util.spec_from_file_location("example_" + script.stem, script)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
for name in ("workloads", "ceilings", "ledger"):
    importlib.import_module("hatbench." + name)
print("\\n".join(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
"""


def test_every_module_is_imported_by_an_entry_point_or_reserved_by_name():
    done = subprocess.run([sys.executable, "-c", IMPORT_THE_DOORS, str(ROOT)],
                          capture_output=True, text=True, check=True)
    imported = set(done.stdout.split())
    shipped = {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        .removesuffix(".__init__")
        for path in (SRC / "repro").rglob("*.py")}
    assert shipped - imported == set(RESERVED)


#: What a hatbench child must not pay for at set-up: only ``python -m
#: repro.bench`` runs artifacts or fans sweeps out to worker processes.
NOT_AT_SETUP = {"multiprocessing", "concurrent.futures.process",
                "repro.bench.experiments", "repro.bench.report",
                "repro.bench.parallel"}
#: The one third-party package set-up may load; the cycle search of the
#: Adya checker needs no graph library.
THIRD_PARTY_AT_SETUP = {"numpy"}

IMPORT_THE_CHILD = """
import pathlib, sys
root = pathlib.Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
started_with = set(sys.modules)
import hatbench.workloads
print("\\n".join(sorted(set(sys.modules) - started_with)))
"""


def test_a_hatbench_child_imports_no_pool_no_artifact_and_no_third_party_but_numpy():
    done = subprocess.run([sys.executable, "-c", IMPORT_THE_CHILD, str(ROOT)],
                          capture_output=True, text=True, check=True)
    imported = set(done.stdout.split())
    assert NOT_AT_SETUP & imported == set()
    packages = ({name.split(".")[0] for name in imported}
                - set(sys.stdlib_module_names) - {"repro", "hatbench"})
    assert packages <= THIRD_PARTY_AT_SETUP
