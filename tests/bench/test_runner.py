"""Tests for the closed-loop workload runner and experiment helpers."""

import pytest

from repro.adya.history import HistoryRecorder
from repro.bench.experiments import figure4_transaction_length
from repro.bench.metrics import LatencySummary, RunStats
from repro.bench.report import format_latency_and_throughput, format_series
from repro.bench.runner import RunConfig, run_workload
from repro.errors import ReproError
from repro.loadgen.engine import (
    GRACE_RTT_MULTIPLE,
    MIN_GRACE_PERIOD_MS,
    default_grace_period_ms,
)
from repro.overload.retry import RetryPolicy
from repro.hat.testbed import FIVE_REGION_DEPLOYMENT, Scenario, build_testbed
from repro.workloads.base import run_preload
from repro.workloads.tpcc_driver import TPCCDriverFactory
from repro.workloads.ycsb import YCSBConfig


def quick_config(protocol, **overrides):
    defaults = dict(
        protocol=protocol,
        scenario=Scenario(regions=["VA", "OR"], servers_per_cluster=2),
        workload=YCSBConfig(key_count=500),
        clients_per_cluster=2,
        duration_ms=300.0,
        warmup_ms=50.0,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestRunWorkload:
    def test_hat_run_produces_committed_transactions(self):
        stats = run_workload(quick_config("read-committed"))
        assert stats.committed > 10
        assert stats.throughput_txn_s > 0
        assert stats.latency.mean > 0

    def test_total_clients_counts_all_clusters(self):
        config = quick_config("eventual", clients_per_cluster=3)
        assert config.total_clients == 6

    def test_master_is_slower_than_hat(self):
        hat = run_workload(quick_config("read-committed"))
        master = run_workload(quick_config("master"))
        assert master.latency.mean > 5 * hat.latency.mean
        assert master.throughput_txn_s < hat.throughput_txn_s

    def test_results_are_reproducible_for_fixed_seed(self):
        a = run_workload(quick_config("eventual", seed=7))
        b = run_workload(quick_config("eventual", seed=7))
        assert a.committed == b.committed
        assert a.latency.mean == pytest.approx(b.latency.mean)


def summary_of_results(results, protocol, clients, duration_ms, warmup_ms,
                       start_ms):
    """The run's stats aggregated from the whole list of its results: the
    reference the runner's running tally must reproduce exactly."""
    measured = [r for r in results if r.end_ms >= start_ms + warmup_ms]
    committed = [r for r in measured if r.committed]
    operations = sum(len(r.reads) + len(r.writes) for r in committed)
    effective_ms = max(duration_ms - warmup_ms, 1e-9)
    return RunStats(
        protocol=protocol, clients=clients, duration_ms=effective_ms,
        committed=len(committed), aborted=len(measured) - len(committed),
        operations=operations,
        latency=LatencySummary.from_samples([r.latency_ms for r in committed]),
        throughput_txn_s=1000.0 * len(committed) / effective_ms,
        throughput_ops_s=1000.0 * operations / effective_ms,
        remote_rpc_fraction=sum(r.remote_rpcs for r in measured)
        / max(1, operations))


def contended_2pl():
    """2PL over two clusters in one region, 50 keys, a 5 ms lock deadline:
    most transactions abort, after remote round trips."""
    return quick_config(
        "two-phase-locking",
        scenario=Scenario(regions=["VA"], clusters_per_region=2,
                          servers_per_cluster=2),
        workload=YCSBConfig(key_count=50), clients_per_cluster=4,
        retry=RetryPolicy(lock_timeout_ms=5.0))


class TestTallyAgainstResultList:
    @pytest.mark.parametrize("make_config", [
        lambda: quick_config("mav"),
        contended_2pl,
        lambda: quick_config("read-committed", duration_ms=400.0,
                             workload=TPCCDriverFactory()),
    ], ids=["ycsb-mav", "ycsb-2pl-contended", "tpcc-rc"])
    def test_recorded_run_summarizes_alike(self, make_config):
        config = make_config()
        testbed = build_testbed(config.scenario)
        run_preload(testbed, config.workload)
        start_ms = testbed.env.now
        recorder = HistoryRecorder()
        stats = run_workload(config, testbed=testbed, recorder=recorder,
                             preload=False)
        results = [result for _, result in recorder._results]
        expected = summary_of_results(
            results, config.protocol, config.total_clients,
            config.duration_ms, config.warmup_ms, start_ms)
        assert stats.committed > 10 and len(results) > stats.committed
        for name in ("protocol", "clients", "duration_ms", "committed",
                     "aborted", "operations", "throughput_txn_s",
                     "throughput_ops_s", "remote_rpc_fraction"):
            assert getattr(stats, name) == getattr(expected, name), name
        assert stats.latency.as_dict() == expected.latency.as_dict()
        assert stats == expected


class TestGracePeriod:
    def test_default_keeps_historical_floor_for_small_deployments(self):
        testbed = build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=1))
        assert default_grace_period_ms(testbed) == MIN_GRACE_PERIOD_MS

    def test_default_scales_with_worst_rtt_in_geo_deployments(self):
        """A fixed 2 s grace period silently truncates in-flight transactions
        when the deployment includes Table 1c's slowest links."""
        testbed = build_testbed(Scenario(regions=list(FIVE_REGION_DEPLOYMENT),
                                         servers_per_cluster=1))
        grace = default_grace_period_ms(testbed)
        assert grace == pytest.approx(GRACE_RTT_MULTIPLE * testbed.max_rtt_ms())
        assert grace > MIN_GRACE_PERIOD_MS
        # VA <-> Singapore is the worst pair of this deployment (253.5 ms).
        assert testbed.max_rtt_ms() == pytest.approx(253.5)

    def test_explicit_grace_period_is_honoured(self):
        config = quick_config("eventual", grace_period_ms=700.0)
        scenario_testbed = build_testbed(config.scenario)
        run_workload(config, testbed=scenario_testbed)
        assert scenario_testbed.env.now == pytest.approx(
            config.duration_ms + 700.0
        )

    def test_composite_spec_through_runner(self):
        stats = run_workload(quick_config("causal"))
        assert stats.committed > 10


class MinimalWorkload:
    """A bare-duck-typed workload: no base class, no observe hook."""

    def __init__(self, session_id):
        self.session_id = session_id

    def next_transaction(self):
        from repro.hat.transaction import Operation, Transaction

        return Transaction([Operation.write("shared", "v"),
                            Operation.read("shared")],
                           session_id=self.session_id)


class MinimalFactory:
    """The smallest object the runner accepts as a workload factory."""

    def build(self, seed, session_id):
        return MinimalWorkload(session_id)


class TestPluggableWorkloads:
    """The pluggable-workload path must keep the runner's timing contracts."""

    def test_custom_factory_runs(self):
        stats = run_workload(quick_config("eventual", workload=MinimalFactory()))
        assert stats.committed > 10

    def test_tpcc_factory_through_runner(self):
        from repro.workloads.tpcc_driver import TPCCDriverFactory

        stats = run_workload(quick_config("read-committed",
                                          workload=TPCCDriverFactory(),
                                          duration_ms=400.0))
        assert stats.committed > 10

    def test_non_factory_workload_rejected(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError, match="workload factory"):
            run_workload(quick_config("eventual", workload=object()))

    def test_grace_floor_unchanged(self):
        """The MIN_GRACE_PERIOD_MS floor is independent of the workload."""
        testbed = build_testbed(Scenario(regions=["VA", "OR"],
                                         servers_per_cluster=1))
        assert default_grace_period_ms(testbed) == MIN_GRACE_PERIOD_MS
        assert MIN_GRACE_PERIOD_MS == 2_000.0

    def test_explicit_grace_period_honoured_for_custom_factory(self):
        """With no preload, the clock still stops exactly at
        duration + grace on the pluggable path."""
        config = quick_config("eventual", workload=MinimalFactory(),
                              grace_period_ms=700.0)
        testbed = build_testbed(config.scenario)
        run_workload(config, testbed=testbed)
        assert testbed.env.now == pytest.approx(config.duration_ms + 700.0)

    def test_preload_shifts_but_preserves_grace_timing(self):
        from repro.workloads.tpcc_driver import TPCCDriverFactory

        factory = TPCCDriverFactory()
        config = quick_config("eventual", workload=factory,
                              duration_ms=300.0, grace_period_ms=500.0)
        testbed = build_testbed(config.scenario)
        from repro.workloads.base import run_preload

        # Preload through a twin testbed to learn how long it takes; the
        # runner must end exactly at preload_end + duration + grace.
        twin = build_testbed(config.scenario)
        run_preload(twin, TPCCDriverFactory())
        preload_end = twin.env.now
        assert preload_end >= factory.settle_ms
        run_workload(config, testbed=testbed)
        assert testbed.env.now == pytest.approx(preload_end + 300.0 + 500.0)

    def test_zero_time_abort_backoff_still_advances_the_clock(self):
        """A fail-fast protocol under a full partition must not freeze the
        simulated clock on the pluggable-workload path."""
        config = quick_config("master", workload=MinimalFactory(),
                              duration_ms=300.0, grace_period_ms=0.0)
        testbed = build_testbed(config.scenario)
        # Split the regions: clients whose key master sits on the far side
        # fail fast with a zero-time local routing check.
        testbed.partition_regions([["VA"], ["OR"]])
        stats = run_workload(config, testbed=testbed)
        assert testbed.env.now == pytest.approx(300.0)
        assert stats.committed + stats.aborted > 0

    def test_backoff_config_still_exposed(self):
        config = quick_config("eventual")
        assert config.retry.abort_backoff_ms == 25.0
        paced = quick_config("eventual", retry=RetryPolicy(abort_backoff_ms=5.0))
        assert paced.retry.abort_backoff_ms == 5.0

    @pytest.mark.parametrize("knob", [
        dict(max_attempts=3),
        dict(retry_budget_ratio=0.1),
        dict(breaker_failure_threshold=8),
    ], ids=lambda knob: next(iter(knob)))
    def test_open_loop_only_retry_knobs_are_refused(self, knob):
        """The closed loop has no retry loop: a policy that asks for one is
        rejected by name, not silently ignored."""
        (field,) = knob
        with pytest.raises(ReproError, match=rf"{field}.*run_open_loop"):
            quick_config("eventual", retry=RetryPolicy(**knob))


class TestTelemetryIntegration:
    def test_windows_exclude_warmup_like_aggregate_stats(self):
        from repro.chaos.telemetry import TimelineTelemetry

        telemetry = TimelineTelemetry(window_ms=50.0)
        config = quick_config("eventual", warmup_ms=100.0)
        stats = run_workload(config, telemetry=telemetry)
        timelines = telemetry.build()
        assert timelines  # one group per region with traffic
        for timeline in timelines.values():
            assert timeline.windows[0].start_ms == 100.0
        windowed = sum(w.committed for t in timelines.values()
                       for w in t.windows)
        # Both sides exclude warmup; windows additionally exclude the grace
        # period, so the windowed total can only be lower.
        assert windowed <= stats.committed


class TestExperimentHelpers:
    def test_figure4_point_structure(self, artifact_sweep):
        points = artifact_sweep("figure4")
        assert len(points) == 2
        assert {p.x_value for p in points} == {1, 4}
        assert all(p.figure == "fig4" for p in points)

    def test_figure5_write_proportions(self, artifact_sweep):
        points = artifact_sweep("figure5")
        assert {p.x_value for p in points} == {0.0, 1.0}

    def test_report_formatting(self):
        points = figure4_transaction_length(lengths=(1,), protocols=("eventual",),
                                            clients_per_cluster=1, duration_ms=200.0)
        table = format_series(points)
        assert "fig4" in table and "eventual" in table
        both = format_latency_and_throughput(points)
        assert "mean_latency_ms" in both and "throughput_txn_s" in both

    def test_empty_series(self):
        assert format_series([]) == "(no data)"
