"""What ships is what an entry point imports.

Production has three doors: ``python -m repro.bench``, ``examples/*.py`` and
``benchmarks/hatbench``.  A module under ``src/repro`` that none of them
imports is either waiting for a caller a ROADMAP item names, or dead.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules no door imports yet, each with the ROADMAP item that will.
RESERVED = {
    "repro.bench.ablations": "item 6: the paper-fidelity scorecard calls it",
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
