"""The collector pause: a paused run's survivors go to the oldest generation
unscanned, and ``build_testbed`` frees the testbeds dropped runs left behind
once they outgrow a quarter of what the last such collection kept alive."""

import gc

import pytest

from repro.adya.history import HistoryRecorder
from repro.bench.runner import RunConfig, run_workload
from repro.hat.testbed import Scenario, build_testbed

SCENARIO = Scenario(regions=["VA", "OR"], servers_per_cluster=2, seed=0)


def paused_run(testbed, duration_ms):
    """A paused ``eventual`` run on ``testbed``; it returns its recorder, so
    the run keeps about 28 tracked objects per simulated millisecond (37
    while every stored key held a list of versions)."""
    recorder = HistoryRecorder()
    run_workload(RunConfig(protocol="eventual", scenario=SCENARIO,
                           duration_ms=duration_ms, warmup_ms=0.0, seed=0),
                 testbed=testbed, recorder=recorder)
    return recorder


@pytest.fixture
def collections():
    """Each collection that starts during the test, as (generation, tracked
    objects in the generations it scans)."""
    started = []

    def note(phase, info):
        if phase == "start":
            scanned = range(info["generation"] + 1)
            started.append((info["generation"],
                            sum(len(gc.get_objects(generation=g)) for g in scanned)))

    gc.callbacks.append(note)
    yield started
    gc.callbacks.remove(note)


def test_a_paused_run_leaves_no_young_objects_to_scan(collections):
    testbed = build_testbed(SCENARIO)
    tracked = len(gc.get_objects())
    collections.clear()
    recorder = paused_run(testbed, 400.0)
    young = len(gc.get_objects(generation=0)) + len(gc.get_objects(generation=1))
    kept = len(gc.get_objects()) - tracked
    allocated = [[] for _ in range(5_000)]
    assert kept >= 10_000 and young < 1_000
    # Gen-0 passes over the new lists only, none over the run's survivors.
    assert collections and all(gen < 2 and scanned < 10_000
                               for gen, scanned in collections), collections
    del recorder, allocated


def test_dropped_testbeds_do_not_pile_up():
    counts = []
    for _ in range(5):
        paused_run(build_testbed(SCENARIO), 1_000.0)
        counts.append(len(gc.get_objects()))
    assert counts[-1] <= 1.5 * counts[0]


def test_a_small_run_after_a_big_one_runs_no_full_collection(collections):
    """The 25 % rule, not a collection per testbed: once a big run's
    survivors were collected, a small run's are left to the next big one."""
    for _ in range(4):
        paused_run(build_testbed(SCENARIO), 1_000.0)
        collections.clear()
        testbed = build_testbed(SCENARIO)
        if any(gen == 2 for gen, _ in collections):
            break
    else:
        pytest.fail("four big runs never led to a full collection")
    collections.clear()
    paused_run(testbed, 50.0)
    build_testbed(SCENARIO)
    assert not [c for c in collections if c[0] == 2]
