"""The entry-point census at function and setting grain: what ships is what
a door runs, and a setting is a constant until two doors need two values.

Production has three doors: ``python -m repro.bench``, ``examples/*.py`` and
``benchmarks/hatbench``.  This script runs all of them in one process under
``sys.setprofile`` (and ``threading.setprofile``), records every code object
entered, and matches each function defined under ``src/repro`` against it by
``(file, first line)`` -- a definition starts at its first decorator.  The
same hook records, on the call that enters a constructor or an experiment,
the value each setting (:func:`class_settings`) receives.  What a
``_sweep`` row passes at ``--full`` and what each ``artifact_sweep`` entry
of ``tests/conftest.py`` passes count as well, read off their keywords and
the defaults with no run (:func:`sweep_values`): ``--full`` is a door too
slow to run here, and the golden pins read those sweeps.  It prints the
functions no door enters, by module, and the settings fewer than two values
reach, and exits non-zero when

* a function no door enters is not named by :data:`RESERVED` (nor exempt:
  a *declaration* or a ``__repr__`` / ``__str__``),
* a :data:`RESERVED` row covers a function a door now enters: the row leaves
  when its item lands,
* a setting fewer than two values reach is not named by
  :data:`RESERVED_SETTINGS`: it becomes a constant, or its row names who
  will pass a second value, or
* a :data:`RESERVED_SETTINGS` row covers a setting two values now reach.

Run it from the repository root (about four minutes on two cores)::

    PYTHONPATH=src python tests/census.py

hatbench's ``profile`` mode is not run: cProfile replaces the hook.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import os
import runpy
import sys
import tempfile
import threading
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: What no door enters, each with why it stays.  A key is a module (reserved
#: whole: no door imports it), a class, or ``module:qualname``; nested
#: functions go with the function they are in.  A reason is one of
#:
#: * ``item N: ...`` -- the ROADMAP open item whose PR calls it (or deletes it);
#: * ``door: <artifact> --full ...`` -- a door reaches it only at full size;
#: * ``guard: ...`` -- a path for an input or setting no door produces
#:   (a validation, a fallback).
RESERVED: Dict[str, str] = {
    # item 1b: the claims matrix (every stack, every claim, every base)
    "repro.hat.protocols:protocol_info":
        "item 1b: the claims matrix reads a stack's codes and availability",
    "repro.hat.protocols:ProtocolSpec.layer_tokens":
        "item 1b: the claims matrix reads a stack's codes and availability",
    "repro.hat.protocols:ProtocolSpec.availability":
        "item 1b: the claims matrix reads a stack's codes and availability",
    "repro.hat.protocols:ProtocolSpec.model_codes":
        "item 1b: the claims matrix reads a stack's codes and availability",
    "repro.hat.protocols:claimed_levels": "item 1b: a matrix row is a stack's claims",
    "repro.hat.protocols:verify_claims": "item 1b: a matrix cell is a checked claim",
    "repro.hat.protocols:Claim": "item 1b: a matrix cell is a checked claim",
    "repro.hat.clients.quorum:QuorumClient": "item 1b: the quorum base's row",
    "repro.replication.quorum:quorum_of": "item 1b: the quorum base's row",
    "repro.hat.layers:CutIsolationLayer.plan":
        "item 1b: the cut-isolation rows run repeated reads",
    "repro.hat.layers:CutIsolationLayer.finalize":
        "item 1b: the cut-isolation rows run repeated reads",
    "repro.hat.transaction:Operation.scan": "item 1b: the predicate (P-CI) rows",
    "repro.hat.clients.base:ProtocolClient._scan_home_cluster":
        "item 1b: the predicate (P-CI) rows",
    "repro.hat.server:HATServer._handle_ru_scan": "item 1b: the predicate (P-CI) rows",
    "repro.storage.kvstore:VersionedStore.scan": "item 1b: the predicate (P-CI) rows",
    "repro.storage.lsm:LSMStore.scan": "item 1b: the predicate (P-CI) rows",
    # item 2: generated schedules, and the crashes they draw
    "repro.chaos.campaign:CampaignSpec": "item 2: the spec a schedule is drawn from",
    "repro.chaos.campaign:generate_campaign": "item 2: the schedule generator",
    "repro.chaos.campaign:_split_regions": "item 2: the schedule generator",
    "repro.chaos.campaign:_partition_actions": "item 2: the schedule generator",
    "repro.chaos.campaign:_flapping_actions": "item 2: the schedule generator",
    "repro.chaos.campaign:_slot_epoch": "item 2: the schedule generator",
    "repro.chaos.campaign:_unretired": "item 2: the schedule generator",
    "repro.chaos.campaign:_downtime_actions": "item 2: the schedule generator",
    "repro.chaos.campaign:_degraded_actions": "item 2: the schedule generator",
    "repro.chaos.campaign:_membership_actions": "item 2: the schedule generator",
    "repro.chaos.campaign:_with_boundary_phases": "item 2: the schedule generator",
    "repro.net.partitions:PartitionManager.isolate":
        "item 2: the nemesis ISOLATE fault kind _flapping_actions draws",
    "repro.net.partitions:PartitionManager.rejoin":
        "item 2: the nemesis REJOIN fault kind _flapping_actions draws",
    "repro.net.network:Network.degrade": "item 2: the nemesis DEGRADE fault kind",
    "repro.net.network:Network.restore": "item 2: the nemesis RESTORE fault kind",
    "repro.net.network:Network.recall": "item 2: a drawn crash recalls replies",
    "repro.cluster.node:ServerNode.recover": "item 2: a drawn crash recovers",
    "repro.hat.server:HATServer.recover": "item 2: a drawn crash recovers",
    "repro.storage.wal:WriteAheadLog.sync": "item 2: durability across a drawn crash",
    "repro.storage.wal:WriteAheadLog.replay": "item 2: durability across a drawn crash",
    "repro.loadgen.arrivals:MMPPArrivals": "item 2: bursty arrivals the fuzzer draws",
    "repro.workloads.distributions:ZipfianKeys":
        "item 2: skewed small key spaces the fuzzer draws",
    "repro.workloads.distributions:KeyChooser.key":
        "item 2: how a ZipfianKeys draw is formatted",
    # item 8: the paper-fidelity scorecard
    "repro.bench.ablations": "item 8: the paper-fidelity scorecard calls it",
    "repro.net.measurement:PingTrace.percentile":
        "item 8: the Figure 1 row (benchmarks/test_bench_fig1_rtt_cdf.py)",
    "repro.net.measurement:PingTrace.cdf":
        "item 8: the Figure 1 row (benchmarks/test_bench_fig1_rtt_cdf.py)",
    "repro.hat.testbed:Testbed.server_list":
        "item 8: the scorecard's ablation rows (bench/ablations.py)",
    "repro.bench.metrics:RunStats.abort_rate":
        "item 8: the scorecard's ablation rows (bench/ablations.py)",
    "repro.taxonomy.survey:survey_statistics": "item 8: the Table 2 row",
    "repro.taxonomy.survey:DatabaseSurveyEntry": "item 8: the Table 2 row",
    "repro.taxonomy.models:hat_combinations": "item 8: the Figure 2 row",
    "repro.taxonomy.models:is_antichain": "item 8: the Figure 2 row",
    "repro.workloads.tpcc_analysis:hat_executable_count": "item 8: the §6.2 row",
    # item 11: recency is checkable
    "repro.adya.history:HistoryBuilder":
        "item 11: the App. A histories its detectors are checked against",
    "repro.adya.history:History.add_transaction":
        "item 11: how HistoryBuilder assembles a history",
    "repro.adya.history:History.set_version_order":
        "item 11: how HistoryBuilder assembles a history",
    # item 18a: the oracle manager
    "repro.sim.events:Environment.pending_events":
        "item 18a: oracle (b), the run quiesces",
    # full-size doors
    "repro.storage.lsm:LSMStore._compact":
        "door: staleness --full fills four 4 MiB memtables on a server and "
        "compacts them (twice); no --quick run fills that many",
    # validation and fallback paths
    "repro.hat.transaction:Operation.__new__":
        "guard: checks the fields of the public constructor; the doors build "
        "operations through Operation.read / .write",
    "repro.storage.records:initial_version":
        "guard: the bottom version a read of a never-written key returns",
    "repro.obs.trace:Tracer.event":
        "guard: a traced run's failover, breaker-open, session-repair or "
        "queue-reject annotation; no door's traced run meets one",
    "repro.loadgen.engine:_ShedResult":
        "guard: an arrival shed at a full queue (OpenLoopConfig.max_queue) "
        "with telemetry on; no artifact bounds the queue",
}

#: Settings (see :func:`class_settings`) that fewer than two values reach at
#: the doors, each with why it stays settable.  A key is
#: ``module:Owner.parameter``, or ``module:Owner`` for all of a class's or
#: function's.  A reason is one of
#:
#: * ``item N: ...`` -- the ROADMAP open item whose PR passes a second value;
#: * ``fake: ...`` -- a test substitute for a production part;
#: * ``guard: ...`` -- a bound or check no door's input reaches.
RESERVED_SETTINGS: Dict[str, str] = {
    # item 2: generated schedules draw what no door varies
    "repro.chaos.campaign:CampaignSpec": "item 2: the spec a schedule is drawn from",
    "repro.loadgen.arrivals:MMPPArrivals": "item 2: bursty arrivals the fuzzer draws",
    "repro.workloads.distributions:ZipfianKeys":
        "item 2: skewed small key spaces the fuzzer draws",
    "repro.workloads.ycsb:YCSBConfig.distribution":
        "item 2: skewed small key spaces the fuzzer draws",
    "repro.workloads.tpcc:TPCCConfig.warehouses":
        "item 2: the fuzzer draws small, contended workload shapes",
    "repro.workloads.tpcc:TPCCConfig.districts_per_warehouse":
        "item 2: the fuzzer draws small, contended workload shapes",
    "repro.workloads.tpcc:TPCCConfig.customers_per_district":
        "item 2: the fuzzer draws small, contended workload shapes",
    "repro.workloads.tpcc:TPCCConfig.items":
        "item 2: the fuzzer draws small, contended workload shapes",
    "repro.workloads.tpcc:TPCCConfig.max_order_lines":
        "item 2: the fuzzer draws small, contended workload shapes",
    "repro.hat.testbed:Scenario.keep_versions":
        "item 2: a keep_versions too shallow for a stack's bounded reads is "
        "the combination it rejects up front",
    "repro.hat.server:HATServer.keep_versions":
        "item 2: a keep_versions too shallow for a stack's bounded reads is "
        "the combination it rejects up front",
    "repro.loadgen.sessions:SessionPool.recorder":
        "item 2: the oracles check the history of an open-loop run",
    # item 3: TPC-C §6.2 measured program by program
    "repro.workloads.tpcc:TPCCConfig.mix":
        "item 3: each program's invariant is read off a run of its own mix",
    # item 18b: verify_claims on every history
    "repro.bench.experiments:availability_experiment.recorder":
        "item 18b: verify_claims checks the history an artifact sweep records",
    # test substitutes
    "repro.hat.testbed:Scenario.fixed_latency_ms":
        "fake: a constant-latency network for unit tests",
    "repro.net.latency:FixedLatencyModel.one_way_ms":
        "fake: a constant-latency network for unit tests",
    # bounds no door's input reaches
    "repro.loadgen.engine:OpenLoopConfig.max_queue":
        "guard: a bound on the open-loop session queue (an arrival past it is "
        "shed); no artifact bounds the queue",
    "repro.loadgen.sessions:SessionPool.max_queue":
        "guard: a bound on the open-loop session queue (an arrival past it is "
        "shed); no artifact bounds the queue",
}


class Function(NamedTuple):
    """One ``def`` under ``src/repro``."""

    module: str
    qualname: str
    path: str
    first: int   # its first decorator's line, else the ``def`` line
    lines: int
    exempt: bool


def module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(
        ".__init__")


def _is_declaration(node: ast.AST) -> bool:
    """``@abstractmethod``, or a body that (docstring aside) only declares:
    ``pass``, ``...``, ``raise NotImplementedError``, or ``return`` of a
    parameter or constant, with the ``yield`` that makes it a generator."""
    if any(isinstance(d, (ast.Name, ast.Attribute))
           and (d.id if isinstance(d, ast.Name) else d.attr) == "abstractmethod"
           for d in node.decorator_list):
        return True
    body = list(node.body)
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if (len(body) == 2 and isinstance(body[1], ast.Expr)
            and isinstance(body[1].value, ast.Yield)
            and body[1].value.value is None):
        body = body[:1]
    if len(body) != 1:
        return not body
    statement = body[0]
    if isinstance(statement, ast.Pass):
        return True
    if isinstance(statement, ast.Expr):
        return (isinstance(statement.value, ast.Constant)
                and statement.value.value is Ellipsis)
    if isinstance(statement, ast.Raise):
        raised = statement.exc
        if isinstance(raised, ast.Call):
            raised = raised.func
        return isinstance(raised, ast.Name) and raised.id == "NotImplementedError"
    if isinstance(statement, ast.Return):
        value = statement.value
        parameters = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        return (value is None or isinstance(value, ast.Constant)
                or (isinstance(value, ast.Name) and value.id in parameters))
    return False


def _walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            yield qualname, child
            yield from _walk(child, qualname + ".")
        elif isinstance(child, ast.ClassDef):
            yield prefix + child.name, child
            yield from _walk(child, prefix + child.name + ".")
        else:
            yield from _walk(child, prefix)


def module_definitions(module: str, path: str,
                       tree: ast.AST) -> Tuple[List[Function], Set[str]]:
    """The functions one module defines, and the ``module:qualname`` of
    each of its classes and functions."""
    functions: List[Function] = []
    names: Set[str] = set()
    for qualname, node in _walk(tree, ""):
        names.add(f"{module}:{qualname}")
        if isinstance(node, ast.ClassDef):
            continue
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        functions.append(Function(
            module, qualname, path, first, node.end_lineno - first + 1,
            node.name in ("__repr__", "__str__") or _is_declaration(node)))
    return functions, names


def definitions() -> Tuple[List[Function], Set[str]]:
    """Every function under ``src/repro``, and every module and class /
    function qualname a :data:`RESERVED` key may name (``module:qualname``)."""
    functions: List[Function] = []
    names: Set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = module_name(path)
        names.add(module)
        found, named = module_definitions(module, str(path),
                                          ast.parse(path.read_text()))
        functions += found
        names |= named
    return functions, names


def covers(key: str, function: Function) -> bool:
    module, _, qualname = key.partition(":")
    return function.module == module and (
        not qualname or function.qualname == qualname
        or function.qualname.startswith(qualname + "."))


# -- the doors -------------------------------------------------------------------

#: hatbench at a tenth of its size: every workload's code path, not its length.
HATBENCH_SCALE = 0.1


def _doors(workdir: str) -> Iterator[Tuple[str, Callable[[], object]]]:
    """Every door, as ``(name, run)``.  The imports come first, so they run
    under the hook the caller armed before asking for the first door."""
    sys.path[:0] = [str(SRC), str(ROOT / "benchmarks")]
    from repro.bench.__main__ import ARTIFACTS, main
    from hatbench.ceilings import run_ceilings
    from hatbench.child import run_repeat
    from hatbench.spec import OBS_ON, WORKLOADS

    yield ("python -m repro.bench <every artifact> --quick --json",
           partial(main, list(ARTIFACTS) + ["--quick", "--json", workdir]))
    for script in sorted((ROOT / "examples").glob("*.py")):
        yield (f"examples/{script.name}",
               partial(runpy.run_path, str(script), run_name="__main__"))
    # hatbench runs a seed per repeat (``--seed``): set-up is built at a
    # second one.
    for workload in WORKLOADS:
        for mode, seed in (("plain", 0), ("obs_off", 0), ("setup_only", 1)):
            if mode != "obs_off" or workload in OBS_ON:
                yield (f"hatbench {workload} {mode} seed {seed}",
                       partial(run_repeat, workload, seed, HATBENCH_SCALE, mode))
    yield "hatbench ceilings", partial(run_ceilings, 0, sample_s=0.01, samples=1)


# -- settings --------------------------------------------------------------------

#: A dataclass whose name ends so is configuration: every field is a setting.
CONFIG_SUFFIXES = ("Config", "Model", "Policy", "SLO")

#: The module whose public functions' keywords are settings: the experiments.
EXPERIMENTS = "repro.bench.experiments"


def _constructor(cls: type):
    """The class's own ``__init__`` or ``__new__`` (written, or made by
    ``@dataclass`` / ``NamedTuple``), else None."""
    for name in ("__init__", "__new__"):
        function = cls.__dict__.get(name)
        if isinstance(function, staticmethod):
            function = function.__func__
        if inspect.isfunction(function):
            return function
    return None


def class_settings(owner) -> List[Tuple[str, str]]:
    """``(module:Owner.parameter, parameter)`` of each setting a class or
    function under ``src/repro`` takes:

    * every field of ``Scenario``, of a dataclass named ``*Config`` /
      ``*Model`` / ``*Policy`` / ``*SLO``, and of a ``repro.bench`` dataclass
      named ``*Params`` (an artifact's parameters);
    * each defaulted keyword of a constructor outside ``repro.bench``.  A
      record's constructor (one ``@dataclass`` or ``NamedTuple`` made) has a
      setting only where its default is a value: a field that starts empty,
      zero, ``None`` or ``False``, or from a factory, is state the component
      fills in (a count, a result, a buffer), not a choice;
    * each defaulted keyword of a public function of
      ``repro.bench.experiments``, but ``jobs``: that says how a sweep runs,
      never what it returns (the determinism properties pin that).
    """
    module, name = owner.__module__, owner.__qualname__
    if inspect.isfunction(owner):
        if module != EXPERIMENTS or name.startswith("_") or "." in name:
            return []
        return [(f"{module}:{name}.{parameter.name}", parameter.name)
                for parameter in inspect.signature(owner).parameters.values()
                if parameter.default is not parameter.empty
                and parameter.name != "jobs"]
    constructor = _constructor(owner)
    in_bench = module.startswith("repro.bench")
    is_data = dataclasses.is_dataclass(owner)
    if (constructor is None or not module.startswith("repro.")
            or (in_bench and not (is_data and name.endswith("Params")))):
        return []
    whole = in_bench or name == "Scenario" or (
        is_data and name.endswith(CONFIG_SUFFIXES))
    made = not os.path.isfile(constructor.__code__.co_filename)  # no source
    found = []
    for parameter in list(inspect.signature(constructor).parameters.values())[1:]:
        if parameter.kind in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD):
            continue
        default = parameter.default
        if whole or (default is not parameter.empty
                     and (not made or _is_a_value(default))):
            found.append((f"{module}:{name}.{parameter.name}", parameter.name))
    return found


def _is_a_value(default: object) -> bool:
    """A constant that is not empty, zero, None or False (and not
    ``@dataclass``'s factory sentinel)."""
    return bool(isinstance(default, (int, float, str, bytes, tuple, frozenset))
                and default)


def settings() -> Dict[str, str]:
    """Every setting, ``module:Owner.parameter`` -> ``module:Owner``."""
    found: Dict[str, str] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = module_name(path)
        for owner in vars(importlib.import_module(module)).values():
            if ((inspect.isclass(owner) or inspect.isfunction(owner))
                    and owner.__module__ == module):
                for key, _ in class_settings(owner):
                    found[key] = key.rpartition(".")[0]
    return found


def _value(value: object) -> object:
    """What tells two arguments apart: the value if hashable, else its repr."""
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def run_doors(doors: Callable[[str], Iterator[Tuple[str, Callable[[], object]]]]
              = _doors) -> Tuple[Set[Tuple[str, int]], Dict[str, Set[object]]]:
    """Run every door once under one profile hook.  Returns ``(co_filename,
    co_firstlineno)`` of every code object entered, and the values each
    setting received (up to two), by key."""
    received: Dict[str, Set[object]] = {}
    #: Every code object entered -> the ``(parameter, values)`` its calls
    #: still record (a constructor with a setting short of two values), or
    #: None.  A code is classified once, on the call that first enters it.
    seen: Dict[object, Optional[List[Tuple[str, Set[object]]]]] = {}
    get, unseen = seen.get, object()

    def pending(owner) -> Optional[List[Tuple[str, Set[object]]]]:
        return [(parameter, received.setdefault(key, set()))
                for key, parameter in class_settings(owner)] or None

    def watch(frame) -> Optional[List[Tuple[str, Set[object]]]]:
        code = frame.f_code   # a made ``__new__`` is named ``<lambda>``
        function = frame.f_globals.get(code.co_name)
        if inspect.isfunction(function) and function.__code__ is code:
            return pending(function)
        if not code.co_argcount or code.co_varnames[0] not in frame.f_locals:
            return None
        first = frame.f_locals[code.co_varnames[0]]
        for cls in (first if isinstance(first, type) else type(first)).__mro__:
            constructor = _constructor(cls)
            if constructor is not None and constructor.__code__ is code:
                return pending(cls)
        return None

    def hook(frame, event, _arg):
        pending = get(frame.f_code, unseen)
        if pending is unseen:
            pending = seen[frame.f_code] = watch(frame)
        if pending is not None and event == "call":
            arguments = frame.f_locals
            short = False
            for parameter, values in pending:
                if len(values) < 2:
                    values.add(_value(arguments[parameter]))
                    short = short or len(values) < 2
            if not short:
                seen[frame.f_code] = None

    def arm():  # again before each door: a door may clear the hook
        sys.setprofile(hook)
        threading.setprofile(hook)

    with tempfile.TemporaryDirectory() as workdir:
        cwd = os.getcwd()
        os.chdir(workdir)   # what a door writes to the cwd lands here
        arm()
        try:
            for name, run in doors(workdir):
                arm()
                with contextlib.redirect_stdout(io.StringIO()):
                    run()
                print(f"ran {name}", file=sys.stderr)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(cwd)
    return ({(code.co_filename, code.co_firstlineno) for code in seen},
            received)


def artifact_sweeps(conftest: Path = ROOT / "tests" / "conftest.py"
                    ) -> Iterator[Tuple[Callable, dict]]:
    """Each ``artifact_sweep`` entry of ``tests/conftest.py`` as
    ``(experiment, keywords)``, read off its source: every entry is a pair
    ``(ex.<experiment>, dict(<literal keywords>))``."""
    from repro.bench import experiments

    for node in ast.walk(ast.parse(conftest.read_text())):
        if (isinstance(node, ast.Tuple) and len(node.elts) == 2
                and isinstance(node.elts[0], ast.Attribute)
                and isinstance(node.elts[1], ast.Call)):
            yield (getattr(experiments, node.elts[0].attr),
                   {keyword.arg: ast.literal_eval(keyword.value)
                    for keyword in node.elts[1].keywords})


def full_sweeps() -> Iterator[Tuple[Callable, dict]]:
    """Each ``_sweep`` row of ``python -m repro.bench`` as ``(experiment,
    its --full overrides)``."""
    from repro.bench.__main__ import ARTIFACTS

    for artifact in ARTIFACTS.values():
        if artifact.full is not None:
            yield artifact.full


def sweep_values(experiment: Callable, keywords: dict
                 ) -> Iterator[Tuple[str, object]]:
    """``(setting, value)`` for each setting a call ``experiment(**keywords)``
    reaches, as the hook would record it: each of the experiment's own and,
    when it hands ``**overrides`` to a ``*Params`` class, each of that
    class's, at the value ``keywords`` names or else at its default."""
    module = sys.modules[experiment.__module__]
    owners = [experiment] + [getattr(module, name)
                             for name in experiment.__code__.co_names
                             if name.endswith("Params")]
    for owner in owners:
        constructor = owner if inspect.isfunction(owner) else _constructor(owner)
        parameters = inspect.signature(constructor).parameters
        for key, name in class_settings(owner):
            yield key, keywords.get(name, parameters[name].default)


def failures(functions: List[Function], names: Set[str],
             entered: Set[Tuple[str, int]],
             reserved: Dict[str, str] = RESERVED) -> List[str]:
    """What fails the census: an unentered function no ``reserved`` row names
    (nor exempt), a row naming nothing, and a row covering an entered
    function that is not exempt."""
    found: List[str] = []
    for function in functions:
        if ((function.path, function.first) not in entered
                and not function.exempt
                and not any(covers(key, function) for key in reserved)):
            found.append(f"{function.module}:{function.qualname} is entered "
                         "by no door and RESERVED does not name it")
    for key in reserved:
        if key not in names:
            found.append(f"RESERVED names {key}, which is not defined")
        for function in functions:
            if ((function.path, function.first) in entered
                    and covers(key, function) and not function.exempt):
                found.append(f"RESERVED row {key} covers "
                             f"{function.module}:{function.qualname}, "
                             "which a door now enters")
    return found


def setting_failures(known: Dict[str, str], received: Dict[str, Set[object]],
                     reserved: Dict[str, str] = RESERVED_SETTINGS) -> List[str]:
    """What fails the census at setting grain: a setting fewer than two
    values reach that no ``reserved`` row names, a row naming no setting or
    class of one, and a row covering a setting two values reach."""
    found: List[str] = []
    classes = set(known.values())
    for key, owner in known.items():
        if (len(received.get(key, ())) < 2
                and key not in reserved and owner not in reserved):
            found.append(f"{key} takes one value at the doors and "
                         "RESERVED_SETTINGS does not name it")
    for row in reserved:
        if row not in known and row not in classes:
            found.append(f"RESERVED_SETTINGS names {row}, which is not a setting")
        for key, owner in known.items():
            if row in (key, owner) and len(received.get(key, ())) >= 2:
                found.append(f"RESERVED_SETTINGS row {row} covers {key}, "
                             "which two values now reach")
    return found


def main() -> int:
    functions, names = definitions()
    entered, received = run_doors()
    for experiment, keywords in chain(full_sweeps(), artifact_sweeps()):
        for key, value in sweep_values(experiment, keywords):
            received.setdefault(key, set()).add(_value(value))
    known = settings()
    unentered = [f for f in functions if (f.path, f.first) not in entered]

    print(f"{len(functions)} functions under src/repro "
          f"({sum(f.lines for f in functions)} lines): "
          f"{len(functions) - len(unentered)} entered by a door, "
          f"{len(unentered)} not ({sum(f.lines for f in unentered)} lines)")
    by_module: Dict[str, List[Function]] = {}
    for function in unentered:
        by_module.setdefault(function.module, []).append(function)
    for module, held in by_module.items():
        print(f"\n{module}")
        for function in held:
            keys = [key for key in RESERVED if covers(key, function)]
            why = (RESERVED[keys[0]] if keys
                   else "exempt" if function.exempt else "UNRESERVED")
            print(f"  {function.qualname:<48} {function.lines:>4}  {why}")
    one = {key: owner for key, owner in known.items()
           if len(received.get(key, ())) < 2}
    print(f"\n{len(known)} settings: {len(known) - len(one)} take two "
          f"or more values at the doors, {len(one)} one or none")
    for key in one:
        why = RESERVED_SETTINGS.get(key) or RESERVED_SETTINGS.get(one[key],
                                                                 "UNRESERVED")
        values = ", ".join(repr(v)[:40] for v in received.get(key, ())) or "-"
        print(f"  {key:<60} {values:<24} {why}")
    found = failures(functions, names, entered) + setting_failures(known, received)
    for failure in found:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
