"""End-to-end elasticity: availability and safety through membership churn.

The elasticity campaign rebalances a cluster *while* a region partition is
in force — the paper's availability claim at its hardest.  The ordering
must hold: sticky HAT stacks keep serving through the partitioned
rebalance, the master baseline goes dark; and the data moved by handoff
must stay safe — every moved key readable at its new owner, and the
recorded histories still passing the stack's declared Adya checks.
"""

from functools import cache

import pytest

from repro.adya.history import HistoryRecorder
from repro.bench.report import elasticity_report_json, format_elasticity
from repro.hat.protocols import verify_claims

@pytest.fixture(scope="module")
def sweep(artifact_sweep):
    """One shared HAT-versus-master elasticity sweep (the expensive part)."""
    return {result.protocol: result
            for result in artifact_sweep("elasticity")}


class TestAvailabilityThroughRebalance:
    def test_hat_stacks_serve_through_the_partitioned_rebalance(self, sweep):
        for protocol in ("eventual", "causal"):
            result = sweep[protocol]
            for group in result.groups:
                scores = result.phase_availability(group)
                assert scores["partitioned-rebalance"] >= 0.9, (protocol,
                                                                group, scores)
                assert scores["baseline"] >= 0.9

    def test_master_goes_dark_during_the_partitioned_rebalance(self, sweep):
        master = sweep["master"]
        assert master.min_phase_availability("partitioned-rebalance") <= 0.1
        assert master.min_phase_availability("baseline") >= 0.7

    def test_hat_stacks_also_survive_the_scale_in_drain(self, sweep):
        for protocol in ("eventual", "causal"):
            assert sweep[protocol].min_phase_availability("scale-in") >= 0.9

    def test_ordering_between_protocol_classes(self, sweep):
        for group in sweep["causal"].groups:
            hat_low = min(
                sweep[p].phase_availability(group)["partitioned-rebalance"]
                for p in ("causal", "eventual"))
            master_score = sweep["master"].phase_availability(
                group)["partitioned-rebalance"]
            assert hat_low > master_score + 0.7


class TestRebalanceAccounting:
    def test_every_protocol_ran_the_same_campaign(self, sweep):
        kinds = {p: [r.kind for r in result.rebalances]
                 for p, result in sweep.items()}
        assert set(map(tuple, kinds.values())) == {("join", "join", "leave")}
        for result in sweep.values():
            assert all(r.done for r in result.rebalances)

    def test_keys_moved_within_twice_the_consistent_hash_ideal(self, sweep):
        # HAT runs write enough data for the fraction to be meaningful.
        for protocol in ("eventual", "causal"):
            record = sweep[protocol].first_join()
            assert record is not None and record.cluster_keys_total > 100
            fraction = record.keys_moved_fraction
            assert fraction <= 2.0 * record.ideal_fraction, record.as_dict()
            assert fraction >= record.ideal_fraction / 2.0, record.as_dict()

    def test_handoff_volume_is_recorded(self, sweep):
        for protocol in ("eventual", "causal"):
            for record in sweep[protocol].rebalances:
                assert record.versions_moved > 0
                assert record.bytes_moved > 0
                assert record.duration_ms > 0

    def test_artifact_renders_and_serializes(self, sweep):
        import json

        results = list(sweep.values())
        text = format_elasticity(results)
        assert "partitioned-rebalance" in text and "ideal" in text
        payload = json.loads(json.dumps(elasticity_report_json(results),
                                        allow_nan=False))
        assert {p["protocol"] for p in payload["protocols"]} == set(sweep)
        first = next(p for p in payload["protocols"]
                     if p["protocol"] == "eventual")
        assert first["first_join"]["keys_moved_fraction"] is not None


class TestNoReadsLostInTransit:
    @pytest.mark.parametrize("protocol", ["causal", "read-committed"])
    def test_history_through_churn_passes_claimed_level(self, protocol, claims_hold):
        """Post-handoff histories on moved keys keep the stack's guarantees.

        A lost handoff version would surface as a session-order violation
        (a client re-reading an older version of a moved key) or a
        vanished committed write — both fail the stack's Adya checks.
        """
        recorder = HistoryRecorder()
        history = _record_run(protocol, recorder)
        assert len(history.committed()) > 50
        claims_hold(protocol, history)

    @pytest.mark.parametrize("protocol", ["mav", "mav+causal"])
    def test_mav_history_through_a_scale_out(self, protocol):
        """A joiner is handed versions carrying sibling metadata mid-run
        (fetched history, then re-dirtied latest versions arriving as
        ``ae.push`` batches): atomic visibility must hold across it."""
        history = _scale_out_history(protocol)
        assert len(history.committed()) > 50
        claim = verify_claims(protocol, history)["MAV"]
        assert claim.verdict == "held", str(claim)

    @pytest.mark.xfail(strict=True, reason=(
        "MRWD(T298, T721, T762) on user1401, a key the join did not move, "
        "breaks WFR and so Causal; cause undiagnosed: the MAV pending/good "
        "read path, session forwarding on a ring change, or the recorder's "
        "timestamp version order (ROADMAP item 4)"))
    def test_mav_causal_scale_out_history_keeps_every_claim(self, claims_hold):
        claims_hold("mav+causal", _scale_out_history("mav+causal"))


@cache
def _scale_out_history(protocol: str):
    """One recorded run whose only fault is a scale-out at 600 ms."""
    from repro.chaos.campaign import (SCALE_OUT, Campaign, CampaignAction,
                                      CampaignPhase)

    def scale_out_only(cluster):
        return Campaign(
            duration_ms=1_600.0,
            actions=(CampaignAction(at_ms=600.0, kind=SCALE_OUT, target=cluster,
                                    note=f"scale-out: {cluster}"),),
            phases=(CampaignPhase("baseline", 0.0, 600.0),
                    CampaignPhase("scale-out", 600.0, 1_600.0)))

    return _record_run(protocol, HistoryRecorder(), scale_out_only)


def _record_run(protocol: str, recorder: HistoryRecorder, make_campaign=None):
    """One recorded elasticity run (in-process, single protocol)."""
    from repro.bench.runner import RunConfig, run_workload
    from repro.chaos.campaign import canonical_elasticity_campaign
    from repro.chaos.nemesis import Nemesis
    from repro.hat.testbed import Scenario, build_testbed
    from repro.overload.retry import RetryPolicy
    from repro.replication.antientropy import AntiEntropyConfig
    from repro.workloads.ycsb import YCSBConfig

    scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2,
                        placement="ring", anti_entropy=AntiEntropyConfig(max_versions_per_round=32))
    testbed = build_testbed(scenario)
    cluster = testbed.config.cluster_names[0]
    campaign = make_campaign(cluster) if make_campaign else \
        canonical_elasticity_campaign(
            ["VA", "OR"], cluster=cluster,
            baseline_ms=500.0, scale_out_ms=800.0, partition_ms=1_000.0,
            scale_in_ms=800.0, recovery_ms=400.0)
    Nemesis(testbed, campaign).install()
    config = RunConfig(protocol=protocol, scenario=scenario,
                       workload=YCSBConfig(key_count=2_000),
                       clients_per_cluster=1,
                       duration_ms=campaign.duration_ms, warmup_ms=0.0,
                       seed=0, retry=RetryPolicy(rpc_timeout_ms=2_000.0))
    run_workload(config, testbed=testbed, recorder=recorder)
    # Every key the first join moved must be readable at its new owner.
    # (A MAV write that reaches a joiner only through post-flip
    # anti-entropy is held in pending, where bounded reads find it: its
    # acks were spent on the old ring — ROADMAP item 4 tracks that hole.)
    join = next(r for r in testbed.membership.records if r.kind == "join")
    assert join.done and join.moved_keys
    index = testbed.config.cluster_index(join.cluster)
    for key in join.moved_keys:
        owner = testbed.servers[testbed.config.placements[key].replicas[index]]
        assert (owner.store.data.versions(key)
                or any(key in entry.writes
                       for entry in owner.mav._pending.values())), key
    return recorder.build()
