"""The critical path attributes the same milliseconds to the same stages
whether a round trip's server side is a span of its own or attributes on
the RPC span.

``tests/data/golden_critical_path_pin.json`` holds the per-stack,
per-condition mean and p99 breakdowns of ``python -m repro.bench trace
--quick`` (every committed transaction, and those that overlapped a fault)
as computed when each served request still had a ``server:<kind>`` span
under its ``rpc:<kind>`` span.  The RPC span now carries ``arrival_ms``,
``queue_wait_ms`` and ``service_ms`` itself; the decomposition must land
within 1e-9 ms of the pin in every segment.
"""

import json
from pathlib import Path

import pytest

from repro.bench.__main__ import ARTIFACTS
from repro.obs.critical_path import SEGMENTS

PIN = Path(__file__).resolve().parents[1] / "data" / "golden_critical_path_pin.json"


@pytest.fixture(scope="module")
def quick_stacks():
    payload = ARTIFACTS["trace"].run(True, None).payload
    return {f"{stack['protocol']}/{stack['condition']}": stack
            for stack in payload["stacks"]}


def test_every_stack_and_condition_is_pinned(quick_stacks):
    pinned = json.loads(PIN.read_text())["stacks"]
    assert sorted(quick_stacks) == sorted(pinned)


@pytest.mark.parametrize("stack", sorted(json.loads(PIN.read_text())["stacks"]))
@pytest.mark.parametrize("path", ["critical_path", "faulted_critical_path"])
def test_breakdowns_match_the_two_span_attribution(quick_stacks, stack, path):
    pinned = json.loads(PIN.read_text())["stacks"][stack][path]
    actual = quick_stacks[stack][path]
    assert actual["transactions"] == pinned["transactions"]
    for field in ("mean_latency_ms", "p99_latency_ms"):
        assert actual[field] == pytest.approx(pinned[field], abs=1e-9)
    for breakdown in ("mean_breakdown_ms", "p99_breakdown_ms"):
        assert set(actual[breakdown]) == set(SEGMENTS)
        for segment in SEGMENTS:
            assert actual[breakdown][segment] == pytest.approx(
                pinned[breakdown][segment], abs=1e-9), (breakdown, segment)
