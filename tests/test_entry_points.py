"""What ships is what an entry point imports.

Production has three doors: ``python -m repro.bench``, ``examples/*.py`` and
``benchmarks/hatbench``.  What none of them reaches is either waiting for a
caller a ROADMAP item names, or dead: ``tests/census.py`` (a CI step) checks
that per function against its ``RESERVED`` table, and this module checks the
table itself and, per module, what the doors import.  And a door imports
only what it runs: a hatbench child's set-up is measured.
"""

import re
import subprocess
import sys
from pathlib import Path

from census import RESERVED, definitions

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

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
    assert shipped - imported == {key for key in RESERVED if ":" not in key}


def _open_items():
    """``1b``, ``2``, ..., and lettered parts like ``18a``: every item under
    ROADMAP "Open items"."""
    text = (ROOT / "ROADMAP.md").read_text().split("## Open items", 1)[1]
    return set(re.findall(r"^- \*\*(\w+)\.", text, re.M)) | set(
        re.findall(r"\*\*\((\d+[a-z])\)", text))


def test_every_reserved_row_names_a_definition_under_src_and_a_reason():
    """The census table (``tests/census.py``, run by CI) is one table: each
    key resolves by ``ast`` to a module, class or function under ``src/``,
    and each reason is an open ROADMAP item, a ``--full`` door or a guard."""
    from repro.bench.__main__ import ARTIFACTS

    _, names = definitions()
    items = _open_items()
    for key, reason in RESERVED.items():
        assert key in names, key
        kind, _, why = reason.partition(": ")
        assert why, (key, reason)
        if kind.startswith("item "):
            assert kind.removeprefix("item ") in items, (key, reason)
        elif kind == "door":
            artifact, flag = why.split()[:2]
            assert artifact in ARTIFACTS and flag == "--full", (key, reason)
        else:
            assert kind == "guard", (key, reason)


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
