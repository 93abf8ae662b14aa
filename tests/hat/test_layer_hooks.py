"""The driver calls only the layer hooks some layer of the stack overrides.

``LayeredClient`` binds, per hook point, the methods of the layers whose
class overrides it (``repro.hat.layers.bound_hooks``); two session layers that
run the same implementation over one shared ``SessionState`` contribute it
once.  Pinned here: which hooks each canonical stack ends up with, that a
stack without read hooks runs no layer code on a read, and — against a driver
that calls every hook of every layer, as the ``for layer in self.layers``
loops did — that a ``causal`` session remembers exactly the same things.
"""

import itertools
import sys

import pytest

from repro.bench.runner import RunConfig, run_workload
from repro.cluster import client as client_module
from repro.hat import layers as layers_module
from repro.hat.layers import bound_hooks
from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction

HOOKS = ("plan", "begin", "serve_read", "before_read", "read_floor",
         "after_read", "finalize")


def _hook_owners(client):
    return {name: [hook.__self__.token for hook in getattr(client, f"_{name}_hooks")]
            for name in HOOKS}


@pytest.fixture
def testbed():
    return build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))


class TestBoundHooks:
    def test_eventual_has_no_hook_at_all(self, testbed):
        owners = _hook_owners(testbed.make_client("eventual"))
        assert owners == {name: [] for name in HOOKS}

    def test_read_committed_serves_reads_from_its_buffer_only(self, testbed):
        owners = _hook_owners(testbed.make_client("read-committed"))
        assert owners == {**{name: [] for name in HOOKS}, "serve_read": ["rc"]}

    def test_mav_adds_the_required_map_hooks(self, testbed):
        owners = _hook_owners(testbed.make_client("mav"))
        assert owners == {**{name: [] for name in HOOKS},
                          "serve_read": ["mav"], "before_read": ["mav"],
                          "after_read": ["mav"]}

    def test_causal_shares_what_its_layers_share(self, testbed):
        """Four session layers, one state: holder tracking and each kind of
        remembering run once; the two floors and two forwards are distinct."""
        client = testbed.make_client("causal")
        assert [layer.token for layer in client.layers] == [
            "mr", "mw", "wfr", "ryw"]
        assert _hook_owners(client) == {
            "plan": [], "begin": ["mw", "wfr"], "serve_read": [],
            "before_read": [], "read_floor": ["mr", "ryw"],
            "after_read": ["mr"], "finalize": ["mr", "mw"]}

    def test_layers_with_states_of_their_own_are_all_driven(self):
        layers = [layers_module.MonotonicReadsLayer(),
                  layers_module.WritesFollowReadsLayer()]
        assert bound_hooks(layers, "finalize") == [
            layers[0].finalize, layers[1].finalize]
        assert bound_hooks(layers, "serve_read") == []


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


# -- causal remembers what the every-layer driver remembered -------------------

def _every_hook_of_every_layer(layers, name):
    """The parent's driver: ``for layer in self.layers: layer.<hook>(...)``."""
    return [getattr(layer, name) for layer in layers]


def _causal_sessions(monkeypatch, hooks):
    # Client ids come from a process-wide counter; both runs start it afresh
    # so their timestamps compare.
    monkeypatch.setattr(client_module, "_CLIENT_IDS", itertools.count(1))
    monkeypatch.setattr(layers_module, "bound_hooks", hooks)
    scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2, seed=4)
    testbed = build_testbed(scenario)
    # One server drops out and returns: its cluster's sessions fail over to
    # the other region and back, so both forwards have versions to send.
    victim = testbed.config.clusters[0].servers[0]
    partitions = testbed.network.partitions
    testbed.env.schedule(250.0, partitions.isolate, victim)
    testbed.env.schedule(550.0, partitions.rejoin, victim)
    stats = run_workload(
        RunConfig(protocol="causal", scenario=scenario, duration_ms=800.0,
                  warmup_ms=0.0, seed=4), testbed=testbed)

    def portable(version):  # transaction ids are process-wide too
        return (version.value, version.timestamp, version.siblings)

    sessions = []
    for client in testbed.clients:
        state = client.session
        sessions.append({
            "last_seen": {k: portable(v) for k, v in state.last_seen.items()},
            "own_writes": {k: portable(v) for k, v in state.own_writes.items()},
            "holders": dict(state.holders),
            "seen_owed": (set(state.seen_owed.owed), dict(state.seen_owed.rank),
                          state.seen_owed.stamp),
            "own_owed": (set(state.own_owed.owed), dict(state.own_owed.rank),
                         state.own_owed.stamp),
            "high_water": state.high_water,
            "forward_probes": state.forward_probes,
            "forwards_issued": state.forwards_issued,
            "stale_reads": state.stale_reads,
            "cache_hits": state.cache_hits,
        })
    return sessions, (stats.committed, testbed.env.events_executed,
                      testbed.network.stats.sent)


def test_causal_session_state_equals_the_every_layer_drivers(monkeypatch):
    sessions, run = _causal_sessions(monkeypatch, bound_hooks)
    reference, reference_run = _causal_sessions(
        monkeypatch, _every_hook_of_every_layer)
    assert run == reference_run
    assert sessions == reference
    # The comparison is about something: sessions remembered, forwarded
    # through the partition and examined their owed keys.
    assert sum(len(s["last_seen"]) + len(s["own_writes"]) for s in sessions) > 500
    assert sum(s["forwards_issued"] for s in sessions) > 0
    assert sum(s["forward_probes"] for s in sessions) > 0
