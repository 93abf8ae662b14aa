"""Differential property: the two session passes find what the four
detectors they replaced found, witness for witness and in the same order.

``repro.adya.phenomena`` finds N-MR, N-MW and MYR in one walk of each
session, and MRWD from each writer's session-read prefix.  The reference
(``session_rules_reference.py``) is the four detectors as they stood
before.  Generated histories have one to three sessions plus transactions
outside any, two or three keys, reads and writes repeated inside a
transaction, reads of a key's writers, of its initial version and of an
unknown writer, aborts, and a drawn version order per key, so that all four
phenomena fire (recorded runs never show N-MW).  One explicit example fixes
MRWD's witness order where it and the observer's read order disagree, and
one recorded ``eventual`` run holds the rewrite to the reference at scale.
"""

import itertools

import pytest
from hypothesis import HealthCheck, Phase, example, find, given, settings
from hypothesis import strategies as st

from repro.adya.history import HistoryBuilder, HistoryRecorder
from repro.adya.phenomena import MRWD, MYR, N_MR, N_MW, detect_each
from repro.bench.runner import RunConfig, run_workload
from repro.cluster import client as client_module
from repro.hat.testbed import Scenario
from repro.workloads.ycsb import YCSBConfig
from session_rules_reference import REFERENCE

#: A writer id no generated transaction has.
UNKNOWN = 99


@st.composite
def session_histories(draw):
    keys = draw(st.sampled_from([["x", "y"], ["x", "y", "z"]]))
    sessions = st.one_of(st.none(), st.integers(min_value=1,
                                                 max_value=draw(st.integers(1, 3))))
    builder = HistoryBuilder()
    writers = {key: [] for key in keys}
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        txn = builder.transaction(session=draw(sessions))
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            key = draw(st.sampled_from(keys))
            if draw(st.booleans()):
                txn.write(key, draw(st.integers(min_value=0, max_value=9)))
                writers[key].append(txn.txn_id)
            else:
                txn.read(key, from_txn=draw(st.sampled_from([None, UNKNOWN, *writers[key]])))
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            txn.abort()
    history = builder.build()
    for key, order in list(history.version_order.items()):
        history.set_version_order(key, draw(st.permutations(order)))
    return history


def found_by_both(history):
    found = detect_each(history, REFERENCE)
    expected = {name: reference(history) for name, reference in REFERENCE.items()}
    return ({name: [str(w) for w in witnesses] for name, witnesses in found.items()},
            {name: [str(w) for w in witnesses] for name, witnesses in expected.items()})


def crossed_dependencies():
    """T3 read y from T2, then x from T1, and wrote z; T4 read T3's z, then
    x and y older than both.  T4's witnesses follow T3's dependencies (y
    first), not T4's own reads (x first)."""
    builder = HistoryBuilder()
    t1 = builder.transaction().write("x", 1)
    t2 = builder.transaction().write("y", 2)
    t3 = builder.transaction(session=1).read("y", from_txn=t2.txn_id)
    t3.read("x", from_txn=t1.txn_id).write("z", 3)
    builder.transaction().read("z", from_txn=t3.txn_id).read("x").read("y")
    return builder.build()


@given(session_histories())
@example(crossed_dependencies())
@settings(max_examples=200, deadline=None)
def test_the_two_passes_find_what_the_four_detectors_found(history):
    found, expected = found_by_both(history)
    assert found == expected


@pytest.mark.parametrize("phenomenon", sorted(REFERENCE))
def test_the_generator_reaches_every_session_phenomenon(phenomenon):
    """A history with several witnesses of each phenomenon is drawn, so the
    property above compares their order too."""
    find(session_histories(),
         lambda history: len(REFERENCE[phenomenon](history)) >= 2,
         settings=settings(max_examples=2_000, database=None, derandomize=True,
                           phases=[Phase.generate],
                           suppress_health_check=list(HealthCheck)))


def test_a_recorded_eventual_run_finds_the_same_witnesses():
    """VA+OR x 2 servers, 20 keys, 4 clients per cluster, seed 1, 600 ms."""
    ids, client_module._CLIENT_IDS = client_module._CLIENT_IDS, itertools.count(1)
    try:
        recorder = HistoryRecorder()
        run_workload(RunConfig(
            "eventual", Scenario(regions=["VA", "OR"], servers_per_cluster=2, seed=1),
            YCSBConfig(key_count=20), clients_per_cluster=4, seed=1,
            duration_ms=600.0), recorder=recorder)
    finally:
        client_module._CLIENT_IDS = ids
    history = recorder.build()
    found, expected = found_by_both(history)
    assert found == expected
    assert len(history.committed()) == 655
    assert {name: len(witnesses) for name, witnesses in found.items()} == {
        N_MR: 6, N_MW: 0, MYR: 30, MRWD: 11}
