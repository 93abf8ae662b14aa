"""Memory pin: a recorded transaction keeps its label and
its result, not the transaction.

``HistoryRecorder.build`` reads a transaction's ``label`` and nothing else
of it, so ``record`` keeps ``(label, result)``: the transaction's operation
list is freed once its client drops it.  The pin is in bytes: what the
recorder frees when its records are dropped, measured with ``tracemalloc``
(bytes requested, not RSS) and divided by the transactions it recorded, on a
small recorded ``read-committed`` TPC-C run (343 transactions).  Keeping
each transaction too, this run held 1 714 B per recorded transaction;
keeping its label, 772 B alone and 817 B after the span pin in the same
process (CPython 3.11; the interpreter's free lists keep some of what is
freed out of ``tracemalloc``'s count, by how full they already are).  So
the run is measured in a fresh interpreter: the same reading alone, after
another pin and in tier-1.
"""

import gc
import json
import tracemalloc

import pytest

from fresh_interpreter import measured_alone
from repro.adya.history import HistoryRecorder
from repro.bench.runner import RunConfig, run_workload
from repro.hat.testbed import Scenario, build_testbed
from repro.workloads.base import run_preload
from repro.workloads.tpcc_driver import TPCCDriverFactory


@pytest.fixture(scope="module")
def recorded_run():
    """:func:`measure`, in an interpreter of its own."""
    return measured_alone(__file__)


def measure():
    """300 simulated ms of 2x2 ``read-committed`` TPC-C, recorded: the
    transactions recorded and the bytes dropping their records frees."""
    scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2, seed=0)
    factory = TPCCDriverFactory()
    testbed = build_testbed(scenario)
    run_preload(testbed, factory)
    recorder = HistoryRecorder()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        run_workload(RunConfig(protocol="read-committed", scenario=scenario,
                               workload=factory, clients_per_cluster=2,
                               duration_ms=300.0, warmup_ms=0.0, seed=0),
                     testbed=testbed, recorder=recorder, preload=False)
        recorded = len(recorder)
        gc.collect()
        holding = tracemalloc.get_traced_memory()[0]
        recorder._results.clear()
        gc.collect()
        freed = holding - tracemalloc.get_traced_memory()[0]
    finally:
        if started:
            tracemalloc.stop()
    return recorded, freed


def test_a_recorded_transaction_keeps_its_label_and_result(recorded_run):
    recorded, freed = recorded_run
    assert recorded > 200
    assert freed / recorded <= 900.0


if __name__ == "__main__":
    print(json.dumps(measure()))
