"""What ships is what an entry point imports.

Production has three doors: ``python -m repro.bench``, ``examples/*.py`` and
``benchmarks/hatbench``.  What none of them reaches is either waiting for a
caller a ROADMAP item names, or dead: ``tests/census.py`` (a CI step) checks
that per function against its ``RESERVED`` table, and this module checks the
table itself and, per module, what the doors import.  And a door imports
only what it runs: a hatbench child's set-up is measured.  The core is
stdlib-only: no module under ``src/`` imports, and no run loads, a package
outside the standard library.
"""

import ast
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
IMPORT_THE_CHILD = """
import pathlib, sys
root = pathlib.Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
started_with = set(sys.modules)
import hatbench.workloads
print("\\n".join(sorted(set(sys.modules) - started_with)))
"""


def test_a_hatbench_child_imports_no_pool_no_artifact_and_no_third_party_package():
    done = subprocess.run([sys.executable, "-c", IMPORT_THE_CHILD, str(ROOT)],
                          capture_output=True, text=True, check=True)
    imported = set(done.stdout.split())
    assert NOT_AT_SETUP & imported == set()
    packages = ({name.split(".")[0] for name in imported}
                - set(sys.stdlib_module_names) - {"repro", "hatbench"})
    assert packages == set()


#: Runs what loads lazily, not only what imports: an EC2-latency YCSB run
#: (the first multiplier block is drawn mid-run), then the Table 1 and
#: Figure 1 renderings; prints every top-level package loaded on the way.
RUN_THE_CORE = """
import pathlib, sys
root = pathlib.Path(sys.argv[1])
sys.path[:0] = [str(root / "src")]
started_with = set(sys.modules)
from repro.bench.__main__ import ARTIFACTS
from repro.bench.runner import RunConfig, run_workload
from repro.hat.testbed import Scenario, build_testbed
from repro.net.latency import EC2LatencyModel
from repro.net.measurement import run_ping_study
scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2)
testbed = build_testbed(scenario)
assert isinstance(testbed.network.latency, EC2LatencyModel)
stats = run_workload(RunConfig(protocol="eventual", scenario=scenario,
                               duration_ms=200.0, warmup_ms=0.0),
                     testbed=testbed)
assert stats.committed > 0 and stats.latency.p99 > 0
assert ARTIFACTS["table1"].run(True).text.startswith("Table 1c")
study, _, _ = run_ping_study(samples_per_link=50, regions=["CA", "OR"])
trace = study.traces["CA-0-0", "OR-0-0"]
assert trace.percentile(10) < trace.mean < trace.percentile(99)
assert trace.cdf(points=10)[-1][1] == 1.0
print("\\n".join(sorted({name.split(".")[0]
                        for name in set(sys.modules) - started_with})))
"""


def test_a_run_and_the_table_1_and_figure_1_renderings_load_only_the_stdlib():
    done = subprocess.run([sys.executable, "-c", RUN_THE_CORE, str(ROOT)],
                          capture_output=True, text=True, check=True)
    # ``multiprocessing`` aliases ``__main__`` as ``__mp_main__``.
    loaded = set(done.stdout.split()) - {"__mp_main__"}
    assert loaded - set(sys.stdlib_module_names) == {"repro"}


def test_every_import_under_src_is_the_stdlib_or_repro():
    """Read by ``ast``, so an import inside a function counts too."""
    outside = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside |= {f"{path.relative_to(SRC)}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names
                        and name.split(".")[0] != "repro"}
    assert outside == set()
