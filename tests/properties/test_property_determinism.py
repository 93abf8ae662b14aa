"""Property tests: identical seeds yield bit-identical runs and campaigns.

Reproducibility is the simulator's load-bearing property — the availability
experiment is only a *measurement* if re-running it with the same seed gives
the same artifact.  These properties pin it end to end: the sim kernel, the
YCSB workload streams, and the chaos campaign generator must all be pure
functions of their seeds, down to float equality (not approx).
"""

from hypothesis import given, settings, strategies as st

from repro.bench.experiments import (
    elasticity_experiment,
    figure3_geo_replication,
    tpcc_sim_experiment,
)
from repro.bench.parallel import run_configs
from repro.bench.runner import RunConfig, run_workload
from repro.chaos.campaign import CampaignSpec, generate_campaign
from repro.chaos.nemesis import Nemesis
from repro.hat.testbed import Scenario, build_testbed
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)

CHAOS_SPEC = CampaignSpec(duration_ms=600.0, partitions=1,
                          partition_duration_ms=(150.0, 300.0),
                          crashes=1, crash_downtime_ms=(50.0, 150.0),
                          degraded_epochs=1,
                          degraded_duration_ms=(50.0, 150.0))


def quick_config(seed: int) -> RunConfig:
    return RunConfig(
        protocol="eventual",
        scenario=Scenario(regions=["VA", "OR"], servers_per_cluster=2,
                          seed=seed),
        workload=YCSBConfig(key_count=200),
        clients_per_cluster=1,
        duration_ms=150.0,
        warmup_ms=0.0,
        seed=seed,
        grace_period_ms=300.0,
    )


def chaos_run(seed: int):
    config = quick_config(seed)
    config.duration_ms = 600.0
    testbed = build_testbed(config.scenario)
    campaign = generate_campaign(CHAOS_SPEC, config.scenario.regions,
                                 testbed.config.all_servers, seed=seed)
    Nemesis(testbed, campaign).install()
    return run_workload(config, testbed=testbed), campaign


class TestSeedDeterminism:
    @settings(max_examples=5, deadline=None)
    @given(seed=SEEDS)
    def test_run_stats_bit_identical(self, seed):
        a = run_workload(quick_config(seed))
        b = run_workload(quick_config(seed))
        # Dataclass equality: every counter and float must match exactly.
        assert a == b

    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS)
    def test_ycsb_streams_bit_identical(self, seed):
        def keys():
            workload = YCSBWorkload(YCSBConfig(key_count=500), seed=seed)
            return [(op.kind, op.key) for _ in range(20)
                    for op in workload.next_transaction().operations]
        assert keys() == keys()

    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS)
    def test_campaigns_bit_identical(self, seed):
        from repro.cluster.config import build_cluster_config

        scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2)
        servers = build_cluster_config(scenario.cluster_regions(),
                                       scenario.servers_per_cluster).all_servers
        a = generate_campaign(CHAOS_SPEC, scenario.regions, servers, seed=seed)
        b = generate_campaign(CHAOS_SPEC, scenario.regions, servers, seed=seed)
        assert a == b

    @settings(max_examples=3, deadline=None)
    @given(seed=SEEDS)
    def test_chaos_runs_bit_identical(self, seed):
        """Kernel + workload + campaign together: same seed, same everything."""
        stats_a, campaign_a = chaos_run(seed)
        stats_b, campaign_b = chaos_run(seed)
        assert campaign_a == campaign_b
        assert stats_a == stats_b


class TestParallelDeterminism:
    """--jobs N sweeps must be bit-identical to sequential execution.

    Worker processes replay the exact same seeded simulations; the merge
    preserves input order; so every RunStats (floats included) must match
    under dataclass equality, not approx.
    """

    def test_run_configs_parallel_matches_sequential(self):
        configs = [quick_config(seed) for seed in (0, 1, 2, 3)]
        sequential = run_configs(configs, jobs=None)
        parallel = run_configs([quick_config(seed) for seed in (0, 1, 2, 3)],
                               jobs=2)
        assert sequential == parallel

    def test_figure_sweep_parallel_matches_sequential(self):
        kwargs = dict(client_counts=(2,), duration_ms=150.0,
                      servers_per_cluster=2)
        sequential = figure3_geo_replication(**kwargs)
        parallel = figure3_geo_replication(**kwargs, jobs=2)
        assert sequential == parallel

    def test_tpcc_sim_parallel_matches_sequential(self):
        kwargs = dict(protocols=("eventual", "lock-sr"), duration_ms=300.0)
        sequential = tpcc_sim_experiment(**kwargs)
        parallel = tpcc_sim_experiment(**kwargs, jobs=2)
        for a, b in zip(sequential, parallel):
            assert a.protocol == b.protocol
            assert a.stats == b.stats
            assert a.anomalies.as_dict() == b.anomalies.as_dict()
            assert a.committed_by_type == b.committed_by_type

    def test_elasticity_parallel_matches_sequential(self):
        """The elasticity sweep — membership churn included — must be
        bit-identical sequential versus --jobs 2: rebalance records,
        per-window availability, and aggregate stats all match exactly."""
        kwargs = dict(protocols=("eventual", "master"),
                      baseline_ms=300.0, scale_out_ms=500.0,
                      partition_ms=700.0, scale_in_ms=500.0,
                      recovery_ms=300.0, window_ms=250.0)
        sequential = elasticity_experiment(**kwargs)
        parallel = elasticity_experiment(**kwargs, jobs=2)
        for a, b in zip(sequential, parallel):
            assert a.protocol == b.protocol
            assert a.stats == b.stats
            assert a.campaign == b.campaign
            assert a.anomalies == b.anomalies
            assert ([r.as_dict() for r in a.rebalances]
                    == [r.as_dict() for r in b.rebalances])
            for group in a.groups:
                assert (a.phase_availability(group)
                        == b.phase_availability(group))
                assert ([w.as_dict() for w in a.groups[group].windows]
                        == [w.as_dict() for w in b.groups[group].windows])
