"""Deterministic memory pin: a traced RPC round trip is one span.

``Network.rpc`` opens an ``rpc:<kind>`` span; the server that takes the
request up writes its side of the trip onto that span (``arrival_ms``,
``queue_wait_ms``, ``service_ms``, ``queue_depth``) instead of opening a
``server:<kind>`` span under it.  Spans are the largest structure a traced
run keeps, so the pin is in bytes: what the tracer's spans hold, measured
with ``tracemalloc`` (bytes requested, not RSS) and divided by the round
trips, on a small traced ``eventual`` run.  With a second span per round
trip this run held 900 B per round trip; with one, 532 B (CPython 3.11),
and 508 B once spans were built without ``__init__``.  The server's side
then moved from an attribute dict to the span's own slots (``dst``,
``arrival_ms``, ``queue_wait_ms``, ``service_ms``, ``queue_depth``; an
``rpc`` span has no ``attrs`` dict): 364 B.  The run is measured in a fresh
interpreter, so it reads the same alone, after another pin and in tier-1.
"""

import gc
import json
import tracemalloc

import pytest

from fresh_interpreter import measured_alone
from repro.bench.runner import RunConfig, run_workload
from repro.hat.testbed import Scenario, build_testbed


@pytest.fixture(scope="module")
def traced_run():
    """:func:`measure`, in an interpreter of its own."""
    return measured_alone(__file__)


def measure():
    """The spans of 300 simulated ms of 2x2 ``eventual`` YCSB, by kind,
    and the bytes the tracer frees when it drops them."""
    scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2, seed=0,
                        tracing=True)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        testbed = build_testbed(scenario)
        run_workload(RunConfig(protocol="eventual", scenario=scenario,
                               duration_ms=300.0, warmup_ms=0.0, seed=0),
                     testbed=testbed)
        tracer = testbed.tracer
        by_id = {span.span_id: span for span in tracer.spans}
        spans = {kind: [span for span in tracer.spans if span.kind == kind]
                 for kind in ("rpc", "server")}
        parents = [by_id.get(span.parent_id) for span in spans["server"]]
        rpc_parented = sum(1 for parent in parents
                           if parent is not None and parent.kind == "rpc")
        answered = [span.service_ms for span in spans["rpc"]
                    if span.status == "ok"]
        round_trips = len(spans["rpc"])
        del by_id, spans, parents
        gc.collect()
        holding = tracemalloc.get_traced_memory()[0]
        tracer.spans.clear()
        tracer._by_txn.clear()
        gc.collect()
        freed = holding - tracemalloc.get_traced_memory()[0]
    finally:
        if started:
            tracemalloc.stop()
    return rpc_parented, answered, round_trips, freed


def test_no_server_span_hangs_under_an_rpc_span(traced_run):
    rpc_parented, _, round_trips, _ = traced_run
    assert round_trips > 1_000
    assert rpc_parented == 0


def test_every_answered_rpc_span_carries_its_service_time(traced_run):
    _, answered, round_trips, _ = traced_run
    assert len(answered) == round_trips  # nothing times out on this run
    assert all(service_ms is not None and service_ms > 0.0
               for service_ms in answered)


def test_a_traced_round_trip_keeps_one_span(traced_run):
    _, _, round_trips, freed = traced_run
    assert freed / round_trips <= 380.0


if __name__ == "__main__":
    print(json.dumps(measure()))
