"""Unit tests for the timeline telemetry layer."""

import json

import pytest

from repro.chaos.campaign import CampaignPhase
from repro.chaos.telemetry import (
    AvailabilitySLO,
    TimelineTelemetry,
    availability_score,
    sum_groups,
)
from repro.errors import ReproError


class FakeResult:
    def __init__(self, end_ms, committed=True, internal_abort=False):
        self.end_ms = end_ms
        self.committed = committed
        self.internal_abort = internal_abort


def record(telemetry, group, start_ms, end_ms=None, committed=True,
           internal=False):
    attempt = telemetry.begin(group, start_ms)
    if end_ms is not None:
        telemetry.complete(attempt, FakeResult(end_ms, committed, internal))
    return attempt


class TestWindowing:
    def test_outcomes_bucket_by_end_time(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 300.0)
        record(telemetry, "VA", 10.0, 50.0)                    # window 0
        record(telemetry, "VA", 90.0, 150.0)                   # window 1
        record(telemetry, "VA", 140.0, 160.0, committed=False)  # window 1
        record(telemetry, "VA", 200.0, 290.0, committed=False,
               internal=True)                                   # window 2
        windows = telemetry.build()["VA"].windows
        assert [w.committed for w in windows] == [1, 1, 0]
        assert [w.external_aborts for w in windows] == [0, 1, 0]
        assert [w.internal_aborts for w in windows] == [0, 0, 1]

    def test_latency_summary_per_window(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 200.0)
        record(telemetry, "VA", 0.0, 40.0)
        record(telemetry, "VA", 20.0, 80.0)
        windows = telemetry.build()["VA"].windows
        assert windows[0].latency.count == 2
        assert windows[0].latency.mean == pytest.approx(50.0)
        assert windows[1].latency.count == 0
        assert windows[1].latency.mean is None

    def test_result_after_run_end_not_bucketed(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 200.0)
        record(telemetry, "VA", 90.0, 450.0)  # commits in the grace period
        windows = telemetry.build()["VA"].windows
        assert sum(w.committed for w in windows) == 0
        # Slow but ultimately committing: latency, not a stall.
        assert all(w.stalled == 0 for w in windows)

    def test_window_spanning_abort_is_a_stall(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 300.0)
        # Wedged behind a partition until an RPC timeout aborts it.
        record(telemetry, "VA", 90.0, 250.0, committed=False)
        windows = telemetry.build()["VA"].windows
        assert [w.stalled for w in windows] == [0, 1, 0]
        assert windows[2].external_aborts == 1

    def test_groups_are_independent(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 100.0)
        record(telemetry, "VA", 0.0, 10.0)
        record(telemetry, "OR", 0.0, 20.0, committed=False)
        timelines = telemetry.build()
        assert timelines["VA"].windows[0].committed == 1
        assert timelines["OR"].windows[0].external_aborts == 1

    def test_build_requires_start_run(self):
        with pytest.raises(ReproError):
            TimelineTelemetry().build()

    def test_bad_parameters_rejected(self):
        with pytest.raises(ReproError):
            TimelineTelemetry(window_ms=0.0)
        with pytest.raises(ReproError):
            TimelineTelemetry().start_run(10.0, 10.0)


class TestStalls:
    def test_open_attempt_stalls_every_covered_window(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 400.0)
        record(telemetry, "VA", 120.0)  # never completes (wedged client)
        windows = telemetry.build()["VA"].windows
        assert [w.stalled for w in windows] == [0, 0, 1, 1]

    def test_fast_transactions_never_stall(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 200.0)
        record(telemetry, "VA", 10.0, 90.0)
        windows = telemetry.build()["VA"].windows
        assert all(w.stalled == 0 for w in windows)


class TestSLOScoring:
    def test_window_meets_default_slo(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 100.0)
        record(telemetry, "VA", 0.0, 10.0)
        window = telemetry.build()["VA"].windows[0]
        assert window.success_fraction == 1.0
        assert window.meets(AvailabilitySLO())

    def test_silent_window_fails_min_committed(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 100.0)
        window = telemetry.build().get("VA")
        assert window is None  # no traffic, no group
        score = availability_score([], AvailabilitySLO())
        assert score is None

    def test_error_storm_fails_success_fraction(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 100.0)
        record(telemetry, "VA", 0.0, 10.0)
        for t in range(5):
            record(telemetry, "VA", t * 10.0, t * 10.0 + 5.0, committed=False)
        window = telemetry.build()["VA"].windows[0]
        assert window.success_fraction == pytest.approx(1.0 / 6.0)
        assert not window.meets(AvailabilitySLO())

    def test_internal_aborts_do_not_hurt_availability(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 100.0)
        record(telemetry, "VA", 0.0, 10.0)
        record(telemetry, "VA", 0.0, 20.0, committed=False, internal=True)
        window = telemetry.build()["VA"].windows[0]
        assert window.success_fraction == 1.0
        assert window.meets(AvailabilitySLO())

    def test_p95_bound_and_stall_policy(self):
        slo = AvailabilitySLO(max_p95_latency_ms=50.0, allow_stalls=False)
        telemetry = TimelineTelemetry(window_ms=100.0, slo=slo)
        telemetry.start_run(0.0, 100.0)
        record(telemetry, "VA", 0.0, 80.0)  # latency 80 > bound
        window = telemetry.build()["VA"].windows[0]
        assert not window.meets(slo)

    def test_phase_availability(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 400.0)
        record(telemetry, "VA", 0.0, 50.0)
        record(telemetry, "VA", 100.0, 150.0)
        # Nothing commits in windows 2-3.
        timeline = telemetry.build()["VA"]
        phases = [CampaignPhase("good", 0.0, 200.0),
                  CampaignPhase("bad", 200.0, 400.0)]
        scores = timeline.phase_availability(phases, AvailabilitySLO())
        assert scores["good"] == 1.0
        assert scores["bad"] == 0.0


class TestSerialization:
    def test_windows_serialize_to_strict_json(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 300.0)
        record(telemetry, "VA", 0.0, 10.0)
        # Windows 1-2 are empty: their latency stats must be None, not NaN.
        windows = telemetry.build()["VA"].windows
        payload = json.dumps([w.as_dict() for w in windows], allow_nan=False)
        decoded = json.loads(payload)
        assert decoded[1]["latency"]["mean"] is None
        assert decoded[0]["committed"] == 1


class TestOfferedAndQueueSeries:
    def test_offer_buckets_by_arrival_time(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 300.0)
        for t in (10.0, 20.0, 150.0, 250.0):
            telemetry.offer("VA", t)
        windows = telemetry.build()["VA"].windows
        assert [w.offered for w in windows] == [2, 1, 1]

    def test_offered_can_exceed_completed(self):
        """Open-loop overload: arrivals outpace completions per window."""
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 100.0)
        for t in (0.0, 10.0, 20.0):
            telemetry.offer("VA", t)
        record(telemetry, "VA", 0.0, 50.0)
        window = telemetry.build()["VA"].windows[0]
        assert window.offered == 3
        assert window.committed == 1
        assert window.offered_rate_s == pytest.approx(30.0)
        assert window.completed_rate_s == pytest.approx(10.0)

    def test_queue_depth_keeps_window_max(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 200.0)
        telemetry.observe_queue_depth("VA", 10.0, 3)
        telemetry.observe_queue_depth("VA", 50.0, 9)
        telemetry.observe_queue_depth("VA", 80.0, 5)
        telemetry.observe_queue_depth("VA", 150.0, 1)
        windows = telemetry.build()["VA"].windows
        assert [w.queue_depth for w in windows] == [9, 1]

    def test_series_serialize(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 100.0)
        telemetry.offer("VA", 0.0)
        telemetry.observe_queue_depth("VA", 0.0, 2)
        payload = telemetry.build()["VA"].windows[0].as_dict()
        decoded = json.loads(json.dumps(payload, allow_nan=False))
        assert decoded["offered"] == 1
        assert decoded["queue_depth"] == 2


class TestRepeatableBuild:
    def test_build_twice_same_answer(self):
        """build() must be a pure snapshot: calling it twice (or completing
        more work in between) cannot corrupt earlier windows."""
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 300.0)
        record(telemetry, "VA", 10.0, 50.0)
        attempt = telemetry.begin("VA", 90.0)  # spans windows while open
        first = telemetry.build()["VA"].windows
        second = telemetry.build()["VA"].windows
        assert [w.as_dict() for w in first] == [w.as_dict() for w in second]
        # The in-flight attempt stalls windows in the snapshot only...
        assert [w.stalled for w in first] == [0, 1, 1]
        # ...and completing it afterwards still buckets correctly.
        telemetry.complete(attempt, FakeResult(120.0))
        final = telemetry.build()["VA"].windows
        assert [w.stalled for w in final] == [0, 0, 0]
        assert [w.committed for w in final] == [1, 1, 0]


class TestWindowBoundaries:
    """Half-open absolute tiles: an instant on a boundary counts in the
    window that starts there, and in exactly one window."""

    def test_boundary_commit_counts_once(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 300.0)
        # Ends exactly on the 100 ms edge: tile [100, 200) holds it, as
        # the registry's tile holds an observation at t = 100.
        record(telemetry, "VA", 10.0, 100.0)
        windows = telemetry.build()["VA"].windows
        assert [w.committed for w in windows] == [0, 1, 0]
        assert sum(w.committed for w in windows) == 1

    def test_boundary_abort_counts_once_and_stalls_the_window_it_covered(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 300.0)
        # Begins at 90 and aborts exactly at t=200: counted in window 2
        # (the tile it ended in); it covered window 1 [100, 200) in full
        # without finishing, so window 1 stalls.
        record(telemetry, "VA", 90.0, 200.0, committed=False)
        windows = telemetry.build()["VA"].windows
        assert [w.external_aborts for w in windows] == [0, 0, 1]
        assert [w.stalled for w in windows] == [0, 1, 0]
        # Counted once, and never in a window it also stalls.
        assert sum(w.external_aborts for w in windows) == 1
        assert not any(w.external_aborts and w.stalled for w in windows)

    def test_boundary_exact_at_run_start(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 200.0)
        # Completes at t=0.0, the very first boundary: window 0.
        record(telemetry, "VA", 0.0, 0.0)
        windows = telemetry.build()["VA"].windows
        assert [w.committed for w in windows] == [1, 0]

    def test_open_attempt_keeps_inclusive_stalls(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 300.0)
        record(telemetry, "VA", 100.0)  # never completes
        windows = telemetry.build()["VA"].windows
        assert [w.stalled for w in windows] == [0, 1, 1]

    def test_clipped_edge_window_is_reported_but_not_scored(self):
        # A run starting after a 488.9 ms preload: its first window is the
        # 11.1 ms the interval leaves of tile [400, 500).
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(488.9, 800.0)
        record(telemetry, "VA", 489.0, 499.0, committed=False)
        record(telemetry, "VA", 500.0, 510.0)
        record(telemetry, "VA", 600.0, 610.0)
        record(telemetry, "VA", 700.0, 710.0)
        timeline = telemetry.build()["VA"]
        edge, *full = timeline.windows
        assert (edge.index, edge.start_ms, edge.end_ms) == (4, 488.9, 500.0)
        assert not edge.scored and all(w.scored for w in full)
        assert [(w.start_ms, w.end_ms) for w in full] == [
            (500.0, 600.0), (600.0, 700.0), (700.0, 800.0)]
        # In the series and the totals ...
        assert edge.external_aborts == 1
        assert sum(w.committed + w.external_aborts
                   for w in timeline.windows) == 4
        # ... but a failing sliver does not cost availability.
        assert not edge.meets(AvailabilitySLO())
        assert timeline.availability(AvailabilitySLO()) == 1.0
        phase = CampaignPhase("run", 488.9, 800.0)
        assert timeline.phase_availability([phase], AvailabilitySLO()) == {
            "run": 1.0}


class TestOneTiling:
    def test_phase_windows_pick_tiles_by_midpoint(self):
        # Off the tile grid: a 200 ms tile belongs to the phase holding its
        # midpoint, and the clipped last tile [1200, 1288.9) to neither.
        telemetry = TimelineTelemetry(window_ms=200.0)
        telemetry.start_run(488.9, 1288.9)
        record(telemetry, "VA", 500.0, 510.0)
        timeline = telemetry.build()["VA"]
        assert [w.index for w in timeline.windows] == [2, 3, 4, 5, 6]
        first = CampaignPhase("first", 488.9, 888.9)
        second = CampaignPhase("second", 888.9, 1288.9)
        assert [w.index for w in timeline.phase_windows(first)] == [2, 3]
        assert [w.index for w in timeline.phase_windows(second)] == [4, 5]

    def test_sum_groups_adds_every_counter_and_merges_latency(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 200.0)
        record(telemetry, "VA", 0.0, 10.0)
        record(telemetry, "OR", 0.0, 30.0)
        record(telemetry, "OR", 50.0, 150.0, committed=False)
        telemetry.offer("VA", 120.0)
        telemetry.observe_queue_depth("VA", 130.0, 2)
        telemetry.observe_queue_depth("OR", 140.0, 3)
        total = sum_groups(telemetry.build(), telemetry.window_ms)
        assert [w.committed for w in total.windows] == [2, 0]
        assert [w.external_aborts for w in total.windows] == [0, 1]
        assert [w.offered for w in total.windows] == [0, 1]
        # Per-region backlog peaks add up to a cluster-wide one.
        assert [w.queue_depth for w in total.windows] == [0, 5]
        assert total.windows[0].latency.count == 2
        assert total.windows[0].latency.mean == pytest.approx(20.0)
        assert total.windows[1].offered_rate_s == pytest.approx(10.0)
        assert total.windows[1].completed_rate_s == pytest.approx(10.0)

    def test_a_snapshot_keeps_its_latencies(self):
        telemetry = TimelineTelemetry(window_ms=100.0)
        telemetry.start_run(0.0, 100.0)
        record(telemetry, "VA", 0.0, 10.0)
        snapshot = telemetry.build()["VA"].windows[0]
        record(telemetry, "VA", 0.0, 90.0)
        assert snapshot.latency.count == 1 and snapshot.committed == 1
        assert telemetry.build()["VA"].windows[0].latency.count == 2


class TestJoinFaultWindows:
    def _window_dicts(self):
        return [{"index": i, "start_ms": i * 100.0,
                 "end_ms": (i + 1) * 100.0} for i in range(4)]

    def _fault(self, window_id, kind, targets, start_ms, end_ms):
        from repro.obs.trace import FaultWindow
        fault = FaultWindow(window_id=window_id, kind=kind, targets=targets,
                            start_ms=start_ms)
        fault.end_ms = end_ms
        return fault.as_dict()

    def test_overlap_stamps_fault_ids(self):
        from repro.obs.metrics import join_fault_windows
        faults = [self._fault(7, "partition", ("VA",), 150.0, 250.0)]
        windows = self._window_dicts()
        join_fault_windows(windows, faults)
        assert [w["faults"] for w in windows] == [[], [7], [7], []]

    def test_open_fault_covers_suffix(self):
        from repro.obs.metrics import join_fault_windows
        faults = [self._fault(1, "crash", ("s1",), 250.0, None)]
        windows = self._window_dicts()
        join_fault_windows(windows, faults)
        assert [w["faults"] for w in windows] == [[], [], [1], [1]]

    def test_zero_width_marker_lands_in_one_window(self):
        from repro.obs.metrics import join_fault_windows
        # A marker exactly on a window edge belongs to the window that
        # *starts* there (instants use half-open [start, end) windows).
        faults = [self._fault(3, "scale-out", ("c0",), 200.0, 200.0)]
        windows = self._window_dicts()
        join_fault_windows(windows, faults)
        assert [w["faults"] for w in windows] == [[], [], [3], []]
