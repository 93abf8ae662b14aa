"""Integration tests for the open-loop traffic engine."""

import pytest

from repro.chaos.telemetry import TimelineTelemetry
from repro.errors import ReproError
from repro.hat.testbed import Scenario
from repro.loadgen import OpenLoopConfig, PoissonArrivals, run_open_loop


def config(**overrides):
    defaults = dict(
        protocol="eventual",
        scenario=Scenario(regions=["VA"], servers_per_cluster=2,
                          fixed_latency_ms=1.0),
        arrivals=PoissonArrivals(60.0),
        users=10_000,
        sessions_per_cluster=4,
        duration_ms=800.0,
        seed=11,
    )
    defaults.update(overrides)
    return OpenLoopConfig(**defaults)


class TestValidation:
    def test_requires_an_arrival_process(self):
        with pytest.raises(ReproError):
            OpenLoopConfig(protocol="eventual",
                           scenario=Scenario(regions=["VA"]), arrivals=None)

    def test_requires_at_least_one_user(self):
        with pytest.raises(ReproError):
            config(users=0)

    def test_total_sessions_spans_clusters(self):
        cfg = config(scenario=Scenario(regions=["VA", "OR"]),
                     sessions_per_cluster=3)
        assert cfg.total_sessions == 6


class TestRun:
    def test_basic_accounting(self):
        stats = run_open_loop(config())
        assert stats.offered > 0
        assert stats.committed > 0
        assert stats.shed == 0  # unbounded queue by default
        assert stats.completed + stats.backlog_final == stats.offered
        assert stats.latency.count == stats.committed
        assert stats.digest.count == stats.committed
        assert stats.backlog, "sampler should record backlog snapshots"

    def test_same_seed_is_deterministic(self):
        first = run_open_loop(config())
        second = run_open_loop(config())
        assert first.offered == second.offered
        assert first.committed == second.committed
        assert first.latency.p99 == second.latency.p99
        assert [s.as_dict() for s in first.backlog] == \
               [s.as_dict() for s in second.backlog]

    def test_different_seed_differs(self):
        first = run_open_loop(config())
        second = run_open_loop(config(seed=12))
        assert first.offered != second.offered or \
               first.latency.mean != second.latency.mean

    def test_max_queue_sheds_and_counts(self):
        # One slow session and a tiny queue: most arrivals must be shed.
        stats = run_open_loop(config(protocol="lock-sr",
                                     sessions_per_cluster=1, max_queue=1))
        assert stats.shed > 0
        assert stats.queue_peak <= 1
        assert stats.offered >= stats.completed + stats.shed

    def test_telemetry_receives_offered_and_queue_series(self):
        telemetry = TimelineTelemetry(window_ms=200.0)
        stats = run_open_loop(config(), telemetry=telemetry)
        timelines = telemetry.build()
        assert set(timelines) == {"VA"}
        windows = timelines["VA"].windows
        assert len(windows) == 4  # 800 ms / 200 ms
        assert sum(w.offered for w in windows) == stats.offered
        # Completions landing in the grace period (after the run's end)
        # count toward stats but fall outside every window.
        windowed = sum(w.committed for w in windows)
        assert 0 < windowed <= stats.committed
        assert all(w.queue_depth >= 0 for w in windows)
        # Latency in the windows is arrival-to-commit, same as the digest.
        assert sum(w.latency.count for w in windows) == windowed

    def test_a_shed_arrival_is_an_external_abort_in_its_window(self):
        # One slow session and a one-deep queue: the arrivals the pool
        # sheds complete on the spot, as aborts the system (not the
        # transaction) chose, in the window they arrived in.
        telemetry = TimelineTelemetry(window_ms=200.0)
        stats = run_open_loop(config(protocol="lock-sr",
                                     sessions_per_cluster=1, max_queue=1),
                              telemetry=telemetry)
        windows = telemetry.build()["VA"].windows
        assert stats.shed > 0 and stats.aborted == 0
        assert sum(w.external_aborts for w in windows) == stats.shed
        assert not any(w.internal_aborts for w in windows)
        for window in windows:
            # Offered here = committed or shed here, give or take the one
            # request in service and the one queued at each boundary.
            assert abs(window.offered - window.committed
                       - window.external_aborts) <= 2
        # A shed arrival was in flight for no time: it stalls no window.
        assert not any(w.stalled for w in windows)

    def test_open_loop_offered_rate_independent_of_protocol(self):
        # The whole point of open loop: a saturated protocol does not slow
        # arrivals down, it grows queueing delay (and backlog) instead.
        fast = run_open_loop(config(arrivals=PoissonArrivals(400.0)))
        slow = run_open_loop(config(arrivals=PoissonArrivals(400.0),
                                    protocol="lock-sr",
                                    sessions_per_cluster=1))
        assert slow.offered == fast.offered  # same seed, same arrivals
        assert slow.queue_peak > fast.queue_peak
        assert slow.latency.mean > fast.latency.mean
