"""The driver calls only the layer hooks some layer of the stack binds.

``LayeredClient`` binds, per hook point, the methods of the layers that do
something there (``repro.hat.layers.bound_hooks``).  A spec's session
guarantees are one ``SessionLayer`` that binds only the hooks its rows use.
Pinned here: which hooks each canonical stack ends up with, that a stack
without read hooks runs no layer code on a read, and — by SHA-256 against a
capture taken while the four guarantees were four layer classes — what the
sessions of seven stacks remember through a failover and back.
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.bench.runner import RunConfig, run_workload
from repro.cluster import client as client_module
from repro.hat import layers as layers_module
from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction

HOOKS = ("plan", "begin", "serve_read", "before_read", "read_floor",
         "after_read", "finalize")


def _hook_owners(client):
    return {name: [hook.__self__.token for hook in getattr(client, f"_{name}_hooks")]
            for name in HOOKS}


def _only(**owners):
    return {**{name: [] for name in HOOKS}, **owners}


@pytest.fixture
def testbed():
    return build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))


class TestBoundHooks:
    def test_eventual_has_no_hook_at_all(self, testbed):
        assert _hook_owners(testbed.make_client("eventual")) == _only()

    def test_read_committed_serves_reads_from_its_buffer_only(self, testbed):
        owners = _hook_owners(testbed.make_client("read-committed"))
        assert owners == _only(serve_read=["rc"])

    def test_mav_adds_the_required_map_hooks(self, testbed):
        owners = _hook_owners(testbed.make_client("mav"))
        assert owners == _only(serve_read=["mav"], before_read=["mav"],
                               after_read=["mav"])

    def test_causal_is_one_session_layer_with_one_hook_per_point(self, testbed):
        client = testbed.make_client("causal")
        assert [layer.token for layer in client.layers] == ["mr+mw+wfr+ryw"]
        assert _hook_owners(client) == _only(
            begin=["mr+mw+wfr+ryw"], read_floor=["mr+mw+wfr+ryw"],
            finalize=["mr+mw+wfr+ryw"])

    def test_mav_causal_floors_reads_before_mav_raises_its_bounds(self, testbed):
        owners = _hook_owners(testbed.make_client("mav+causal"))
        assert owners["read_floor"] == ["mr+mw+wfr+ryw"]
        assert owners["after_read"] == ["mav"]

    def test_mw_alone_binds_no_read_hook(self, testbed):
        assert _hook_owners(testbed.make_client("mw")) == _only(
            begin=["mw"], finalize=["mw"])

    def test_ryw_alone_binds_no_begin(self, testbed):
        assert _hook_owners(testbed.make_client("ryw")) == _only(
            read_floor=["ryw"], finalize=["ryw"])


def test_a_read_through_a_stack_without_read_hooks_runs_no_layer_code(testbed):
    client = testbed.make_client("eventual")
    layer_frames = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == layers_module.__file__:
            layer_frames.append(frame.f_code.co_name)

    process = client.execute(Transaction(
        [Operation.read("user1"), Operation.read("user2")]))
    sys.setprofile(watch)
    try:
        result = testbed.env.run_until_complete(process)
    finally:
        sys.setprofile(None)
    assert result.committed and len(result.reads) == 2
    assert layer_frames == []


# -- what the sessions remember, pinned ------------------------------------------

SESSION_PIN = (Path(__file__).resolve().parent.parent / "data"
               / "golden_session_state_pin.json")
#: Every session row, alone and bundled, over each base.
SESSION_SPECS = ("causal", "mav+causal", "read-committed+ci+pram", "mr+wfr",
                 "mav+wfr", "read-committed+ryw", "mw")


def _portable(version):  # transaction ids come from a process-wide counter
    return [version.value, version.timestamp, sorted(version.siblings)]


def _owed(index):  # None: no row of the stack forwards that map
    if index is None:
        return None
    return {"owed": sorted(index.owed), "stamp": index.stamp}


def _sessions(monkeypatch, protocol):
    """What each session of a ``protocol`` run remembers, plus the run's
    (committed, events, messages).  One server drops out and returns: its
    cluster's sessions fail over to the other region and back, so floors
    repair reads and forwards have versions to send."""
    # Client ids feed timestamps; every run starts the counter afresh.
    monkeypatch.setattr(client_module, "_CLIENT_IDS", itertools.count(1))
    scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2, seed=4)
    testbed = build_testbed(scenario)
    victim = testbed.config.clusters[0].servers[0]
    partitions = testbed.network.partitions
    testbed.env.schedule(250.0, partitions.isolate, victim)
    testbed.env.schedule(550.0, partitions.rejoin, victim)
    stats = run_workload(
        RunConfig(protocol=protocol, scenario=scenario, duration_ms=800.0,
                  warmup_ms=0.0, seed=4), testbed=testbed)
    sessions = []
    for client in testbed.clients:
        state = client.session
        sessions.append({
            "last_seen": {k: _portable(v) for k, v in state.last_seen.items()},
            "own_writes": {k: _portable(v) for k, v in state.own_writes.items()},
            "holders": state.holders,
            "seen_owed": _owed(state.seen_owed),
            "own_owed": _owed(state.own_owed),
            "forward_probes": state.forward_probes,
            "forwards_issued": state.forwards_issued,
            "stale_reads": state.stale_reads,
            "cache_hits": state.cache_hits,
        })
    run = [stats.committed, testbed.env.events_executed,
           testbed.network.stats.sent]
    return json.loads(json.dumps({"run": run, "sessions": sessions}))


def session_state_pin(monkeypatch) -> dict:
    """SHA-256 of every session snapshot plus per-spec totals to read."""
    snapshots = {spec: _sessions(monkeypatch, spec) for spec in SESSION_SPECS}
    summary = {}
    for spec, snapshot in snapshots.items():
        sessions = snapshot["sessions"]
        totals = {field: sum(len(s[field]) for s in sessions)
                  for field in ("last_seen", "own_writes", "holders")}
        totals.update({f"{field}_keys": sum(len(s[field]["owed"]) for s in sessions
                                            if s[field] is not None)
                       for field in ("seen_owed", "own_owed")})
        totals.update({field: sum(s[field] for s in sessions)
                       for field in ("forward_probes", "forwards_issued",
                                     "stale_reads", "cache_hits")})
        summary[spec] = {"committed_events_msgs": snapshot["run"], **totals}
    rendered = json.dumps(snapshots, sort_keys=True)
    return {"sha256": hashlib.sha256(rendered.encode()).hexdigest(),
            "summary": summary}


def test_sessions_remember_what_the_four_layer_classes_remembered(monkeypatch):
    pin = json.loads(SESSION_PIN.read_text())
    actual = session_state_pin(monkeypatch)
    assert actual["summary"] == pin["summary"]
    assert actual["sha256"] == pin["sha256"]
    # The pin is about something: sessions remembered, repaired reads and
    # forwarded through the failover.
    causal = pin["summary"]["causal"]
    assert causal["last_seen"] + causal["own_writes"] > 500
    assert causal["forwards_issued"] > 0
    assert pin["summary"]["mav+causal"]["cache_hits"] > 0
    assert pin["summary"]["mw"]["forwards_issued"] > 0
