"""Unit tests for the census's rules (``tests/census.py``), on snippets.

The census itself runs every door (a CI step); these pin what it decides
from a definition and a set of entered ``(file, first line)`` pairs, which
constructor and experiment parameters are settings, what its profile hook
records, what it reads off the ``--full`` and artifact sweeps without a
run, and what it decides from the values each setting received.
"""

import ast
import textwrap
from dataclasses import dataclass, field
from typing import NamedTuple

import pytest

from census import (artifact_sweeps, class_settings, covers, failures,
                    full_sweeps, module_definitions, run_doors,
                    setting_failures, sweep_values)


def _definitions(source, module="repro.m", path="m.py"):
    return module_definitions(module, path, ast.parse(textwrap.dedent(source)))


def _only(source):
    functions, _ = _definitions(source)
    assert len(functions) == 1
    return functions[0]


DECLARATIONS = {
    "abstractmethod": "@abstractmethod\ndef f(self):\n    return self.x + 1\n",
    "pass": "def f(self):\n    pass\n",
    "ellipsis": "def f(self):\n    ...\n",
    "not-implemented": "def f(self):\n    raise NotImplementedError\n",
    "not-implemented-call": "def f(self):\n    raise NotImplementedError('f')\n",
    "docstring-only": 'def f(self):\n    """Only a docstring."""\n',
    "return-parameter": "def f(self, version):\n    return version\n",
    "return-constant": 'def f(self):\n    """Nothing."""\n    return None\n',
    "generator": "def f(self):\n    return\n    yield\n",
}


@pytest.mark.parametrize("source", DECLARATIONS.values(), ids=DECLARATIONS.keys())
def test_a_declaration_is_exempt(source):
    assert _only(source).exempt


WORK = {
    "return-attribute": "def f(self):\n    return self.x\n",
    "return-global": "def f(self):\n    return TABLE\n",
    "two-statements": "def f(self):\n    self.x = 1\n    return None\n",
    "raise-other": "def f(self):\n    raise ValueError\n",
}


@pytest.mark.parametrize("source", WORK.values(), ids=WORK.keys())
def test_a_body_that_does_work_is_not_exempt(source):
    assert not _only(source).exempt


def test_repr_and_str_are_exempt():
    functions, _ = _definitions("""
        class C:
            def __repr__(self):
                return f"<C {self.x}>"
            def __str__(self):
                return f"C {self.x}"
            def __len__(self):
                return len(self.x)
    """)
    assert {f.qualname: f.exempt for f in functions} == {
        "C.__repr__": True, "C.__str__": True, "C.__len__": False}


def test_a_definition_starts_at_its_first_decorator():
    function = _only("""
        @first
        @second
        def f(self):
            return self.x
    """)
    # Line 1 is the dedented snippet's empty first line.
    assert (function.first, function.lines) == (2, 4)


def test_qualnames_of_methods_and_nested_functions():
    functions, names = _definitions("""
        class C:
            def method(self):
                def inner():
                    return self.x
                return inner
        def top():
            return 1
    """)
    assert [f.qualname for f in functions] == ["C.method", "C.method.inner", "top"]
    assert names == {"repro.m:C", "repro.m:C.method", "repro.m:C.method.inner",
                     "repro.m:top"}


def test_a_key_covers_its_module_class_or_function_and_what_is_nested_in_it():
    functions, _ = _definitions("""
        class C:
            def method(self):
                def inner():
                    return self.x
                return inner
        class Cache:
            def get(self):
                return self.x
    """)
    def covered(key):
        return [f.qualname for f in functions if covers(key, f)]

    assert covered("repro.m") == ["C.method", "C.method.inner", "Cache.get"]
    assert covered("repro.m:C") == ["C.method", "C.method.inner"]
    assert covered("repro.m:C.method.inner") == ["C.method.inner"]
    assert covered("repro.other") == []


SOURCE = """
    class C:
        def used(self):
            return self.x
        def held(self):
            return self.y
        def declared(self):
            pass
"""


def _census(entered_names, reserved):
    functions, names = _definitions(SOURCE)
    entered = {(f.path, f.first) for f in functions if f.qualname in entered_names}
    return failures(functions, names, entered, reserved)


def test_an_unentered_function_no_row_names_fails_by_name():
    assert _census({"C.used"}, {}) == [
        "repro.m:C.held is entered by no door and RESERVED does not name it"]


def test_a_reserved_or_declared_unentered_function_passes():
    assert _census({"C.used"}, {"repro.m:C.held": "item 2: later"}) == []


def test_a_row_covering_an_entered_function_fails_by_name():
    assert _census({"C.used", "C.held"}, {"repro.m:C.held": "item 2: later"}) == [
        "RESERVED row repro.m:C.held covers repro.m:C.held, which a door now "
        "enters"]


def test_a_row_naming_nothing_fails():
    assert _census({"C.used", "C.held"}, {"repro.m:C.gone": "item 2: later"}) == [
        "RESERVED names repro.m:C.gone, which is not defined"]


def test_a_row_may_cover_an_entered_declaration():
    """A class row covers its hook defaults too; entering one is no news."""
    assert _census({"C.used", "C.declared"}, {"repro.m:C": "item 2: later"}) == [
        "RESERVED row repro.m:C covers repro.m:C.used, which a door now enters"]


# -- settings ---------------------------------------------------------------------

def _in_repro(cls, module="repro.storage.wal"):
    """``cls`` (or a function) as if defined in a module under ``src/repro``."""
    cls.__module__, cls.__qualname__ = module, cls.__name__
    return cls


def test_every_field_of_a_config_dataclass_is_a_setting():
    @dataclass
    class ThingConfig:
        size: int
        bound: int = 0
        kinds: list = field(default_factory=list)

    assert [key for key, _ in class_settings(_in_repro(ThingConfig))] == [
        "repro.storage.wal:ThingConfig.size", "repro.storage.wal:ThingConfig.bound",
        "repro.storage.wal:ThingConfig.kinds"]


def test_a_written_constructor_has_its_defaulted_keywords():
    class Thing:
        def __init__(self, env, size=3, recorder=None, *args, **kwargs):
            self.env = env

    assert class_settings(_in_repro(Thing)) == [
        ("repro.storage.wal:Thing.size", "size"),
        ("repro.storage.wal:Thing.recorder", "recorder")]


def test_a_records_setting_is_a_default_that_is_a_value():
    """A made constructor's field that starts empty, zero, None, False or
    from a factory is state; one that defaults to a value is a setting."""
    @dataclass
    class ThingStats:
        name: str
        count: int = 0
        seen: dict = field(default_factory=dict)
        label: str = ""
        window_ms: float = 500.0

    class Record(NamedTuple):
        key: str
        owner: object = None
        weight: int = 2

    assert class_settings(_in_repro(ThingStats)) == [
        ("repro.storage.wal:ThingStats.window_ms", "window_ms")]
    assert class_settings(_in_repro(Record)) == [
        ("repro.storage.wal:Record.weight", "weight")]


def test_the_bench_package_and_classes_outside_src_have_no_settings():
    """In ``repro.bench`` only a ``*Params`` dataclass and a public
    experiment function have settings."""
    class Params:
        def __init__(self, size=3):
            self.size = size

    @dataclass
    class RunConfig:
        size: int = 3

    def helper(size=3):
        return size

    def _private_experiment(size=3):
        return size

    assert class_settings(_in_repro(Params, "repro.bench.experiments")) == []
    assert class_settings(_in_repro(RunConfig, "repro.bench.runner")) == []
    assert class_settings(_in_repro(helper, "repro.bench.report")) == []
    assert class_settings(
        _in_repro(_private_experiment, "repro.bench.experiments")) == []
    assert class_settings(Params) == []


def test_a_params_field_and_an_experiment_keyword_are_settings():
    """Every field of a bench ``*Params`` dataclass, whatever its default,
    and every defaulted keyword of a public experiment but ``jobs``."""
    @dataclass(frozen=True)
    class ThingParams:
        size: int = 0
        label: str = "x"
        workload: object = None

    def thing_experiment(protocols, lengths=(1, 2), recorder=None, jobs=None,
                         **overrides):
        return ThingParams(**overrides)

    module = "repro.bench.experiments"
    assert class_settings(_in_repro(ThingParams, module)) == [
        (f"{module}:ThingParams.size", "size"),
        (f"{module}:ThingParams.label", "label"),
        (f"{module}:ThingParams.workload", "workload")]
    assert class_settings(_in_repro(thing_experiment, module)) == [
        (f"{module}:thing_experiment.lengths", "lengths"),
        (f"{module}:thing_experiment.recorder", "recorder")]


def test_what_full_or_an_artifact_sweep_passes_is_a_second_value(tmp_path):
    """Read with no run, a ``conftest.py`` entry and a ``_sweep`` row's
    ``--full`` overrides pass each setting its named value or its default:
    one the doors never pass is the second value that keeps it a setting."""
    from repro.bench import experiments as ex

    conftest = tmp_path / "conftest.py"
    conftest.write_text(textwrap.dedent("""
        def _artifact_sweeps():
            return {"figure5": (ex.figure5_write_proportion, dict(
                protocols=("eventual",), clients_per_cluster=1))}
    """))
    (sweep,) = artifact_sweeps(conftest)
    assert sweep == (ex.figure5_write_proportion,
                     {"protocols": ("eventual",), "clients_per_cluster": 1})
    fig5 = "repro.bench.experiments:figure5_write_proportion"
    values = dict(sweep_values(*sweep))
    assert values[f"{fig5}.clients_per_cluster"] == 1
    assert values[f"{fig5}.duration_ms"] == 800.0   # the default
    # A keyword the experiment hands on (``**overrides``) sets its params.
    full = dict(full_sweeps())[ex.metastability_experiment]
    values = dict(sweep_values(ex.metastability_experiment, full))
    assert values["repro.bench.experiments:MetastabilityParams.baseline_ms"] == (
        full["baseline_ms"])

    known = {f"{fig5}.clients_per_cluster": fig5}
    at_the_doors = {f"{fig5}.clients_per_cluster": {12}}
    assert setting_failures(known, at_the_doors, {}) == [
        f"{fig5}.clients_per_cluster takes one value at the doors and "
        "RESERVED_SETTINGS does not name it"]
    at_the_doors[f"{fig5}.clients_per_cluster"].add(1)
    assert setting_failures(known, at_the_doors, {}) == []


def sweep_experiment(lengths=(1, 2), jobs=None):
    """A stand-in for a public function of ``repro.bench.experiments``."""
    return lengths


def test_the_hook_records_the_values_a_door_passes():
    """One door under the profile hook: a written ``__init__``, a made
    ``NamedTuple.__new__`` (a ``<lambda>``), a dataclass ``__init__`` and an
    experiment function."""
    _in_repro(sweep_experiment, "repro.bench.experiments")

    class Record(NamedTuple):
        key: str
        weight: int = 2

    _in_repro(Record)

    def doors(_workdir):
        from repro.replication.antientropy import AntiEntropyConfig
        from repro.storage.kvstore import VersionedStore

        def run():
            VersionedStore(keep_versions=3)
            VersionedStore()
            Record("k")
            Record("k", weight=5)
            AntiEntropyConfig(interval_ms=5.0)
            sweep_experiment()
            sweep_experiment((4,), jobs=2)

        yield "constructors", run

    _, received = run_doors(doors)
    assert received["repro.storage.kvstore:VersionedStore.keep_versions"] == {3, None}
    assert received["repro.storage.wal:Record.weight"] == {2, 5}
    assert received["repro.replication.antientropy:AntiEntropyConfig.interval_ms"] == {5.0}
    assert received["repro.bench.experiments:sweep_experiment.lengths"] == {
        (1, 2), (4,)}
    assert "repro.bench.experiments:sweep_experiment.jobs" not in received


KNOWN = {"repro.m:C.a": "repro.m:C", "repro.m:C.b": "repro.m:C"}


def test_a_setting_one_value_reaches_fails_unless_a_row_names_it():
    received = {"repro.m:C.a": {1, 2}, "repro.m:C.b": {1}}
    assert setting_failures(KNOWN, received, {}) == [
        "repro.m:C.b takes one value at the doors and RESERVED_SETTINGS does "
        "not name it"]
    assert setting_failures(KNOWN, received, {"repro.m:C.b": "fake: a"}) == []
    assert setting_failures(KNOWN, {"repro.m:C.a": {1, 2}},
                            {"repro.m:C.b": "item 2: later"}) == []


def test_a_row_whose_setting_takes_two_values_fails():
    received = {"repro.m:C.a": {1, 2}, "repro.m:C.b": {1}}
    assert setting_failures(KNOWN, received, {"repro.m:C": "item 2: later"}) == [
        "RESERVED_SETTINGS row repro.m:C covers repro.m:C.a, which two values "
        "now reach"]


def test_a_row_naming_no_setting_fails():
    received = {"repro.m:C.a": {1, 2}, "repro.m:C.b": {1, 2}}
    assert setting_failures(KNOWN, received, {"repro.m:C.gone": "guard: x"}) == [
        "RESERVED_SETTINGS names repro.m:C.gone, which is not a setting"]
