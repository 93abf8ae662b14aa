"""Unit tests for the nemesis: installation, validation, narration, the pin."""

import dataclasses

import pytest

from repro.chaos.campaign import (
    Campaign,
    CampaignAction,
    CampaignError,
    CampaignSpec,
    canonical_elasticity_campaign,
    canonical_partition_campaign,
    canonical_staleness_campaign,
    generate_campaign,
)
from repro.chaos.nemesis import Nemesis
from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction
from txn import run_txn

REGIONS = ["VA", "OR"]


class TestInstallation:
    def test_install_registers_and_double_install_raises(self):
        testbed = build_testbed(Scenario(regions=REGIONS, servers_per_cluster=1))
        nemesis = Nemesis(testbed, canonical_partition_campaign(REGIONS))
        nemesis.install()
        assert testbed.env.pending_events == 2
        with pytest.raises(CampaignError):
            nemesis.install()
        assert testbed.env.pending_events == 2

    def test_narration_logs_fired_events_in_order(self):
        testbed = build_testbed(Scenario(regions=REGIONS, servers_per_cluster=1))
        campaign = canonical_partition_campaign(REGIONS, 100.0, 200.0, 100.0)
        nemesis = Nemesis(testbed, campaign)
        nemesis.install()
        assert nemesis.log == []
        testbed.run(400.0)
        assert [entry.kind for entry in nemesis.log] == ["partition",
                                                         "clear-partition"]
        assert [entry.at_ms for entry in nemesis.log] == [100.0, 300.0]
        text = "\n".join(str(entry) for entry in nemesis.log)
        assert "partition" in text and "t=" in text

    def test_idle_nemesis_narrates_nothing(self):
        testbed = build_testbed(Scenario(regions=REGIONS, servers_per_cluster=1))
        nemesis = Nemesis(testbed, canonical_partition_campaign(REGIONS))
        nemesis.install()
        testbed.run(1_000.0)  # the first fault is due at 3 000 ms
        assert nemesis.log == [] and testbed.faults.windows == []

    def test_phase_at_delegates_to_campaign(self):
        """The nemesis fires the partition at its phase's edges: a phase is
        the campaign's window, and what happens in it is the nemesis's."""
        testbed = build_testbed(Scenario(regions=REGIONS, servers_per_cluster=1))
        campaign = canonical_partition_campaign(REGIONS, 100.0, 200.0, 100.0)
        nemesis = Nemesis(testbed, campaign)
        nemesis.install()
        testbed.run(campaign.duration_ms)
        partition = next(p for p in nemesis.campaign.phases
                         if p.name == "partition")
        assert [entry.at_ms for entry in nemesis.log] == [partition.start_ms,
                                                          partition.end_ms]


class TestValidation:
    """A campaign the deployment cannot run is refused before anything is
    scheduled, by an error that names the action."""

    @pytest.mark.parametrize("action", [
        CampaignAction(at_ms=10.0, kind="crash", target="ghost-server"),
        CampaignAction(at_ms=10.0, kind="isolate", target="ghost-server"),
        CampaignAction(at_ms=10.0, kind="scale-out", target="ghost-cluster"),
        CampaignAction(at_ms=10.0, kind="partition",
                       groups=(("VA",), ("OR", "ghost-region"))),
        CampaignAction(at_ms=-1.0, kind="clear-partition"),
        CampaignAction(at_ms=10.0, kind="degrade", factor=0.0),
    ], ids=lambda action: f"{action.kind}@{action.at_ms:g}")
    def test_a_bad_action_is_rejected_by_name_before_any_is_scheduled(self, action):
        testbed = build_testbed(Scenario(regions=REGIONS, servers_per_cluster=1,
                                         placement="ring"))
        good = CampaignAction(at_ms=5.0, kind="restore")
        campaign = Campaign(duration_ms=100.0, actions=(good, action), phases=())
        with pytest.raises(CampaignError) as raised:
            Nemesis(testbed, campaign).install()
        assert repr(action) in str(raised.value)
        assert testbed.env.pending_events == 0


def run_with_writers(testbed, campaign):
    """Install ``campaign``, then run it under one eventual writer per cluster."""
    nemesis = Nemesis(testbed, campaign)
    nemesis.install()

    def writer(client, first):
        n = first
        while testbed.env.now < campaign.duration_ms:
            yield client.execute(Transaction([Operation.write(f"k{n % 16}", n)]))
            yield testbed.env.timeout(20.0)
            n += 1

    for index, cluster in enumerate(testbed.config.cluster_names):
        testbed.env.process(writer(
            testbed.make_client("eventual", home_cluster=cluster), index * 1000))
    testbed.run(campaign.duration_ms + 500.0)
    return nemesis


#: Three crash slots and two scale-ins on a 2x2 ring: in 24 of seeds 0-39 a
#: crash slot ends after both clusters are scaled in.
CHURN = CampaignSpec(duration_ms=3_000.0, partitions=0, crashes=3,
                     crash_downtime_ms=(100.0, 300.0), scale_ins=2,
                     rebalance_phase_ms=(200.0, 400.0))


def _churn_testbed_and_campaign(seed):
    testbed = build_testbed(Scenario(regions=REGIONS, servers_per_cluster=2,
                                     placement="ring", seed=seed))
    return testbed, generate_campaign(CHURN, REGIONS, testbed.config.all_servers,
                                      seed=seed, clusters=testbed.config.cluster_names)


@pytest.mark.parametrize("seed", range(40))
def test_a_generated_campaign_never_crashes_a_server_a_scale_in_retired(seed):
    """A crash slot picks only among servers whose cluster no scale-in
    targets by the end of the slot, so every seed generates and
    ``Nemesis.install`` never refuses a generated campaign; a slot left with
    no such server stays empty (24 of these 40 seeds were refused when
    generated while it raised)."""
    testbed, campaign = _churn_testbed_and_campaign(seed)
    crashes = [p for p in campaign.phases if p.name.startswith("crash-")]
    assert 1 <= len(crashes) <= CHURN.crashes
    nemesis = run_with_writers(testbed, campaign)
    assert [e.kind for e in nemesis.log] == [a.kind for a in campaign.timeline()]


def test_campaigns_with_every_crash_slot_filled_are_unchanged(assert_pin):
    """The 16 seeds whose three crash slots all find a victim generate what
    they generated before an empty slot was allowed (``campaign/churn``,
    taken from that commit's generator)."""
    full = {}
    for seed in range(40):
        campaign = _churn_testbed_and_campaign(seed)[1]
        if sum(p.name.startswith("crash-") for p in campaign.phases) == CHURN.crashes:
            full[str(seed)] = dataclasses.asdict(campaign)
    assert len(full) == 16
    assert_pin("campaign/churn", full)


def _generated(**knobs):
    spec = CampaignSpec(duration_ms=2_000.0, **{"partitions": 0, **knobs})
    return lambda testbed: generate_campaign(
        spec, REGIONS, testbed.config.all_servers, seed=7,
        clusters=testbed.config.cluster_names)


#: The three canonical campaigns and one generated campaign per fault family.
PIN_CASES = {
    "canonical-partition": lambda tb: canonical_partition_campaign(
        REGIONS, 300.0, 600.0, 300.0),
    "canonical-elasticity": lambda tb: canonical_elasticity_campaign(
        REGIONS, tb.config.cluster_names[0], 200.0, 400.0, 600.0, 400.0, 300.0),
    "canonical-staleness": lambda tb: canonical_staleness_campaign(
        REGIONS, tb.config.cluster_names[0], 300.0, 600.0, 600.0),
    "generated-partition": _generated(
        partitions=2, partition_duration_ms=(200.0, 400.0)),
    "generated-flapping": _generated(
        flapping_servers=2, flap_period_ms=100.0,
        flap_duration_ms=(300.0, 600.0)),
    "generated-crash": _generated(crashes=2, crash_downtime_ms=(100.0, 300.0)),
    "generated-rolling-restart": _generated(
        rolling_restart=True, restart_downtime_ms=50.0,
        restart_stagger_ms=100.0),
    "generated-degraded": _generated(
        degraded_epochs=2, degraded_factor=4.0,
        degraded_duration_ms=(200.0, 400.0)),
    "generated-membership": _generated(
        scale_outs=1, scale_ins=1, rebalance_storms=1,
        rebalance_phase_ms=(300.0, 500.0), storm_period_ms=200.0),
}


class TestEquivalencePin:
    """What the nemesis says and does, captured at the commit before the
    fault path was rewritten (the ``nemesis/<case>`` pins): a reworded
    description or two same-instant actions swapped fails here."""

    @pytest.mark.parametrize("case", sorted(PIN_CASES))
    def test_narration_ledger_and_event_count_match_the_pin(self, case, assert_pin):
        testbed = build_testbed(Scenario(regions=REGIONS, servers_per_cluster=2,
                                         placement="ring"))
        nemesis = run_with_writers(testbed, PIN_CASES[case](testbed))
        assert_pin(f"nemesis/{case}", {
            "narration": [[e.at_ms, e.kind, e.description, list(e.targets)]
                          for e in nemesis.log],
            "windows": [w.as_dict() for w in testbed.faults.windows],
            "events_executed": testbed.env.events_executed,
        })


class TestDegradedLatencyEpoch:
    def test_latency_epoch_slows_transactions_then_recovers(self):
        testbed = build_testbed(Scenario(regions=["VA"], servers_per_cluster=1,
                                         fixed_latency_ms=1.0))
        campaign = Campaign(
            duration_ms=1_000.0,
            actions=(
                CampaignAction(at_ms=100.0, kind="degrade", factor=10.0),
                CampaignAction(at_ms=500.0, kind="restore"),
            ),
            phases=(),
        )
        Nemesis(testbed, campaign).install()
        client = testbed.make_client("eventual")
        ops = [Operation.write("x", 1), Operation.read("x")]

        before = run_txn(testbed, client, ops)
        testbed.run(200.0 - testbed.env.now)  # into the degraded epoch
        during = run_txn(testbed, client, ops)
        testbed.run(600.0 - testbed.env.now)  # past the restore
        after = run_txn(testbed, client, ops)

        # Only the network legs scale (server service time does not), so the
        # degraded run is several times slower, not exactly 10x.
        assert during.latency_ms > 4.0 * before.latency_ms
        assert after.latency_ms == pytest.approx(before.latency_ms, rel=0.2)
