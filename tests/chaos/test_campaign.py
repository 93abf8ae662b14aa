"""Unit tests for campaign specs, the seeded generator, and compilation."""

import pytest

from repro.chaos.campaign import (
    CLEAR_PARTITION,
    CRASH,
    DEGRADE,
    ISOLATE,
    PARTITION,
    RECOVER,
    REJOIN,
    RESTORE,
    Campaign,
    CampaignAction,
    CampaignError,
    CampaignSpec,
    canonical_partition_campaign,
    generate_campaign,
)
from repro.chaos.nemesis import Nemesis
from repro.hat.testbed import Scenario, build_testbed

REGIONS = ["VA", "OR"]


def servers_of(scenario: Scenario):
    from repro.cluster.config import build_cluster_config
    config = build_cluster_config(scenario.cluster_regions(),
                                  scenario.servers_per_cluster)
    return config.all_servers


FULL_SPEC = CampaignSpec(duration_ms=10_000.0, partitions=2,
                         flapping_servers=1, crashes=2,
                         rolling_restart=True, degraded_epochs=1)


class TestSpecValidation:
    def test_negative_duration_rejected(self):
        with pytest.raises(CampaignError):
            CampaignSpec(duration_ms=-1.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(CampaignError):
            CampaignSpec(partitions=-1)
        with pytest.raises(CampaignError):
            CampaignSpec(crashes=-2)

    def test_bad_ranges_rejected(self):
        with pytest.raises(CampaignError):
            CampaignSpec(partition_duration_ms=(2_000.0, 1_000.0))
        with pytest.raises(CampaignError):
            CampaignSpec(crash_downtime_ms=(0.0, 100.0))

    def test_bad_duty_rejected(self):
        with pytest.raises(CampaignError):
            CampaignSpec(flap_duty=0.0)
        with pytest.raises(CampaignError):
            CampaignSpec(flap_duty=1.5)

    def test_bad_periods_and_restart_knobs_rejected(self):
        with pytest.raises(CampaignError):
            CampaignSpec(flap_period_ms=0.0)
        with pytest.raises(CampaignError):
            CampaignSpec(restart_downtime_ms=-500.0)
        with pytest.raises(CampaignError):
            CampaignSpec(restart_stagger_ms=-1.0)

    def test_pathological_flap_period_refused_at_generation(self):
        scenario = Scenario(regions=REGIONS, servers_per_cluster=1)
        spec = CampaignSpec(duration_ms=2_000.0, partitions=0,
                            flapping_servers=1, flap_period_ms=1e-6,
                            flap_duration_ms=(1_500.0, 1_500.0))
        with pytest.raises(CampaignError, match="isolate/rejoin cycles"):
            generate_campaign(spec, REGIONS, servers_of(scenario), seed=0)


class TestGenerator:
    def test_same_seed_same_campaign(self):
        scenario = Scenario(regions=REGIONS, servers_per_cluster=2)
        servers = servers_of(scenario)
        a = generate_campaign(FULL_SPEC, REGIONS, servers, seed=42)
        b = generate_campaign(FULL_SPEC, REGIONS, servers, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        scenario = Scenario(regions=REGIONS, servers_per_cluster=2)
        servers = servers_of(scenario)
        a = generate_campaign(FULL_SPEC, REGIONS, servers, seed=1)
        b = generate_campaign(FULL_SPEC, REGIONS, servers, seed=2)
        assert a.actions != b.actions

    def test_actions_sorted_and_within_horizon(self):
        scenario = Scenario(regions=REGIONS, servers_per_cluster=2)
        campaign = generate_campaign(FULL_SPEC, REGIONS, servers_of(scenario),
                                     seed=3)
        times = [action.at_ms for action in campaign.actions]
        assert times == sorted(times)
        assert all(t >= 0 for t in times)

    def test_partitions_do_not_overlap(self):
        scenario = Scenario(regions=REGIONS, servers_per_cluster=1)
        spec = CampaignSpec(duration_ms=10_000.0, partitions=3)
        campaign = generate_campaign(spec, REGIONS, servers_of(scenario), seed=5)
        epochs = []
        start = None
        for action in campaign.timeline():
            if action.kind == PARTITION:
                assert start is None, "nested partition epoch"
                start = action.at_ms
            elif action.kind == CLEAR_PARTITION:
                assert start is not None
                epochs.append((start, action.at_ms))
                start = None
        assert len(epochs) == 3
        for (_, end), (next_start, _) in zip(epochs, epochs[1:]):
            assert end <= next_start

    @pytest.mark.parametrize("seed", range(5))
    def test_same_family_epochs_never_overlap(self, seed):
        """One latency factor and one alive flag per server: an overlapping
        epoch's restore/recover would silently cancel a still-active one."""
        scenario = Scenario(regions=REGIONS, servers_per_cluster=2)
        spec = CampaignSpec(duration_ms=10_000.0, crashes=3,
                            degraded_epochs=3, flapping_servers=2)
        campaign = generate_campaign(spec, REGIONS, servers_of(scenario),
                                     seed=seed)
        for prefix in ("crash-", "degraded-", "flap-"):
            epochs = sorted((p.start_ms, p.end_ms) for p in campaign.phases
                            if p.name.startswith(prefix))
            assert len(epochs) >= 2
            for (_, end), (next_start, _) in zip(epochs, epochs[1:]):
                assert end <= next_start, (prefix, epochs)

    @pytest.mark.parametrize("seed", range(5))
    def test_crash_cycles_and_rolling_restart_share_one_timeline(self, seed):
        """Both knobs flip the same per-server alive flag, so no recover may
        fire inside another epoch's declared downtime."""
        scenario = Scenario(regions=REGIONS, servers_per_cluster=2)
        spec = CampaignSpec(duration_ms=10_000.0, partitions=0, crashes=2,
                            rolling_restart=True)
        campaign = generate_campaign(spec, REGIONS, servers_of(scenario),
                                     seed=seed)
        epochs = sorted((p.start_ms, p.end_ms) for p in campaign.phases
                        if p.name.startswith(("crash-", "rolling-restart")))
        assert len(epochs) == 3
        for (_, end), (next_start, _) in zip(epochs, epochs[1:]):
            assert end <= next_start, epochs
        # Replaying the alive-flag transitions per server never recovers a
        # server that is not down, nor crashes one that is already down.
        down = set()
        for action in campaign.timeline():
            if action.kind == CRASH:
                assert action.target not in down, action
                down.add(action.target)
            elif action.kind == RECOVER:
                assert action.target in down, action
                down.discard(action.target)
        assert not down

    def test_fault_families_emit_paired_actions(self):
        scenario = Scenario(regions=REGIONS, servers_per_cluster=2)
        campaign = generate_campaign(FULL_SPEC, REGIONS, servers_of(scenario),
                                     seed=7)
        kinds = [action.kind for action in campaign.actions]
        assert kinds.count(ISOLATE) == kinds.count(REJOIN) > 0
        # 2 crash cycles + a rolling restart of all 4 servers.
        assert kinds.count(CRASH) == kinds.count(RECOVER) == 2 + 4
        assert kinds.count(DEGRADE) == kinds.count(RESTORE) == 1

    def test_boundary_phases_bracket_the_faults(self):
        scenario = Scenario(regions=REGIONS, servers_per_cluster=1)
        spec = CampaignSpec(duration_ms=8_000.0, partitions=1)
        campaign = generate_campaign(spec, REGIONS, servers_of(scenario), seed=0)
        names = [phase.name for phase in campaign.phases]
        assert names[0] == "baseline"
        assert names[-1] == "recovered"
        assert "partition-1" in names

    def test_quiet_spec_yields_single_baseline_phase(self):
        scenario = Scenario(regions=REGIONS, servers_per_cluster=1)
        spec = CampaignSpec(duration_ms=1_000.0, partitions=0)
        campaign = generate_campaign(spec, REGIONS, servers_of(scenario), seed=0)
        assert campaign.actions == ()
        assert [p.name for p in campaign.phases] == ["baseline"]

    def test_single_region_partition_rejected(self):
        with pytest.raises(CampaignError):
            generate_campaign(CampaignSpec(partitions=1), ["VA"], ["s0"], seed=0)

    def test_phase_at(self):
        campaign = canonical_partition_campaign(REGIONS, 1_000.0, 2_000.0,
                                                1_000.0)

        def phase_at(t_ms):
            return next((phase.name for phase in campaign.phases
                         if phase.start_ms <= t_ms < phase.end_ms), None)

        assert phase_at(500.0) == "baseline"
        assert phase_at(1_500.0) == "partition"
        assert phase_at(3_500.0) == "recovered"
        assert phase_at(9_999.0) is None


class TestCanonicalCampaign:
    def test_three_phases_and_two_actions(self):
        campaign = canonical_partition_campaign(REGIONS, 1_000.0, 2_000.0, 500.0)
        assert campaign.duration_ms == 3_500.0
        assert [p.name for p in campaign.phases] == ["baseline", "partition",
                                                     "recovered"]
        kinds = [action.kind for action in campaign.actions]
        assert kinds == [PARTITION, CLEAR_PARTITION]
        assert campaign.actions[0].groups == (("VA",), ("OR",))

    def test_needs_two_regions(self):
        with pytest.raises(CampaignError):
            canonical_partition_campaign(["VA"])


class TestCompile:
    def test_canonical_campaign_applies_and_clears(self):
        testbed = build_testbed(Scenario(regions=REGIONS, servers_per_cluster=1))
        campaign = canonical_partition_campaign(REGIONS, 100.0, 200.0, 100.0)
        Nemesis(testbed, campaign).install()
        va = testbed.config.cluster(testbed.config.cluster_names[0]).servers[0]
        orr = testbed.config.cluster(testbed.config.cluster_names[1]).servers[0]
        testbed.run(50.0)
        assert testbed.network.partitions.connected(va, orr)
        testbed.run(100.0)  # t=150, inside the partition
        assert not testbed.network.partitions.connected(va, orr)
        testbed.run(200.0)  # t=350, healed
        assert testbed.network.partitions.connected(va, orr)

    def test_crash_and_degrade_actions_compile(self):
        testbed = build_testbed(Scenario(regions=REGIONS, servers_per_cluster=1))
        victim = testbed.config.all_servers[0]
        campaign = Campaign(
            duration_ms=1_000.0,
            actions=(
                CampaignAction(at_ms=100.0, kind=CRASH, target=victim),
                CampaignAction(at_ms=300.0, kind=RECOVER, target=victim),
                CampaignAction(at_ms=400.0, kind=DEGRADE, factor=4.0),
                CampaignAction(at_ms=600.0, kind=RESTORE),
            ),
            phases=(),
        )
        Nemesis(testbed, campaign).install()
        testbed.run(200.0)
        assert not testbed.servers[victim].alive
        testbed.run(150.0)  # t=350, recovered
        assert testbed.servers[victim].alive
        testbed.run(150.0)  # t=500, degraded epoch
        assert testbed.network.latency_factor == 4.0
        testbed.run(200.0)  # t=700, restored
        assert testbed.network.latency_factor == 1.0

    def test_unknown_kind_rejected(self):
        testbed = build_testbed(Scenario(regions=REGIONS, servers_per_cluster=1))
        campaign = Campaign(duration_ms=1.0, actions=(
            CampaignAction(at_ms=0.0, kind="meteor-strike"),), phases=())
        with pytest.raises(CampaignError):
            Nemesis(testbed, campaign).install()


class TestMembershipActions:
    """The scale-out/scale-in/rebalance-storm campaign family."""

    def test_negative_membership_counts_rejected(self):
        for name in ("scale_outs", "scale_ins", "rebalance_storms"):
            with pytest.raises(CampaignError):
                CampaignSpec(**{name: -1})

    def test_bad_storm_knobs_rejected(self):
        with pytest.raises(CampaignError):
            CampaignSpec(storm_cycles=0)
        with pytest.raises(CampaignError):
            CampaignSpec(storm_period_ms=0.0)
        with pytest.raises(CampaignError):
            CampaignSpec(rebalance_phase_ms=(0.0, 100.0))

    def test_membership_events_require_cluster_names(self):
        spec = CampaignSpec(scale_outs=1)
        with pytest.raises(CampaignError):
            generate_campaign(spec, REGIONS, ["s0", "s1"], seed=0)

    def test_generator_emits_membership_actions_and_phases(self):
        from repro.chaos.campaign import SCALE_IN, SCALE_OUT

        spec = CampaignSpec(duration_ms=12_000.0, partitions=0,
                            scale_outs=1, scale_ins=1, rebalance_storms=1)
        clusters = ["cluster0-VA", "cluster1-OR"]
        campaign = generate_campaign(spec, REGIONS, ["s0", "s1"], seed=3,
                                     clusters=clusters)
        outs = [a for a in campaign.actions if a.kind == SCALE_OUT]
        ins = [a for a in campaign.actions if a.kind == SCALE_IN]
        # One standalone join, one standalone leave, plus storm cycles.
        assert len(outs) >= 2 and len(ins) >= 2
        assert all(a.target in clusters for a in outs + ins)
        labels = {p.name.split("-")[0] for p in campaign.phases}
        assert "storm" in labels
        # Determinism: same seed, same campaign.
        again = generate_campaign(spec, REGIONS, ["s0", "s1"], seed=3,
                                  clusters=clusters)
        assert campaign == again

    def test_membership_campaign_compiles_and_drives_the_coordinator(self):
        spec = CampaignSpec(duration_ms=3_000.0, partitions=0, scale_outs=1,
                            rebalance_phase_ms=(500.0, 800.0))
        scenario = Scenario(regions=["VA"], servers_per_cluster=2,
                            placement="ring", fixed_latency_ms=1.0)
        testbed = build_testbed(scenario)
        campaign = generate_campaign(spec, ["VA"], testbed.config.all_servers,
                                     seed=0, clusters=testbed.config.cluster_names)
        Nemesis(testbed, campaign).install()
        testbed.run(3_000.0)
        records = testbed.membership.records
        assert [r.kind for r in records] == ["join"]
        assert records[0].done
        assert len(testbed.config.clusters[0].servers) == 3


class TestElasticityCampaign:
    def test_five_phases_in_order(self):
        from repro.chaos.campaign import canonical_elasticity_campaign

        campaign = canonical_elasticity_campaign(REGIONS, cluster="c0")
        assert [p.name for p in campaign.phases] == [
            "baseline", "scale-out", "partitioned-rebalance",
            "scale-in", "recovered"]
        ends = [p.end_ms for p in campaign.phases]
        starts = [p.start_ms for p in campaign.phases]
        assert starts[1:] == ends[:-1]  # contiguous
        assert campaign.duration_ms == ends[-1]

    def test_rebalance_happens_inside_the_partition(self):
        from repro.chaos.campaign import (
            SCALE_OUT, canonical_elasticity_campaign)

        campaign = canonical_elasticity_campaign(REGIONS, cluster="c0")
        partition = next(p for p in campaign.phases
                         if p.name == "partitioned-rebalance")
        mid_joins = [a for a in campaign.actions if a.kind == SCALE_OUT
                     and partition.start_ms <= a.at_ms < partition.end_ms]
        assert len(mid_joins) == 1

    def test_needs_two_regions(self):
        from repro.chaos.campaign import canonical_elasticity_campaign

        with pytest.raises(CampaignError):
            canonical_elasticity_campaign(["VA"], cluster="c0")
