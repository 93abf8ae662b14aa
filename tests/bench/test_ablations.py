"""Unit-scale tests for the ablation experiments."""

from repro.bench.ablations import (
    anti_entropy_visibility,
    coordinated_baselines,
    stickiness_ablation,
)
from repro.bench.experiments import composite_guarantee_sweep


class TestAntiEntropyVisibility:
    def test_visibility_grows_with_interval(self):
        points = anti_entropy_visibility(intervals_ms=(10.0, 300.0), writes=6)
        assert len(points) == 2
        assert points[0].mean_visibility_ms < points[1].mean_visibility_ms
        assert all(p.versions_pushed > 0 for p in points)

    def test_visibility_exceeds_wan_latency(self):
        """Remote visibility can never beat the one-way WAN latency."""
        points = anti_entropy_visibility(intervals_ms=(10.0,), writes=5)
        assert points[0].mean_visibility_ms > 30.0  # VA->OR one way ~41 ms


class TestStickinessAblation:
    def test_sticky_sessions_never_violate_ryw(self):
        result = stickiness_ablation(sessions=3)
        assert result.sticky_violations == 0
        assert result.non_sticky_violations >= 1


class TestSessionLayerOverhead:
    def test_stacked_protocols_keep_local_latency(self):
        """On a healthy network the session layers forward nothing, so the
        causal stacks stay within HAT (local) latency like their bases."""
        stacks = ("read-committed", "read-committed+causal", "mav", "mav+causal")
        points = composite_guarantee_sweep(protocols=stacks, client_counts=(4,),
                                           duration_ms=300.0)
        assert {p.protocol for p in points} == set(stacks)
        for point in points:
            assert point.throughput_txn_s > 0
            assert point.mean_latency_ms < 20.0
            assert point.extras["remote_rpc_fraction"] == 0.0


class TestCoordinatedBaselines:
    def test_all_baselines_pay_wan_latency(self):
        points = coordinated_baselines(duration_ms=400.0)
        assert {p.protocol for p in points} == {"master", "two-phase-locking", "quorum"}
        for point in points:
            assert point.mean_latency_ms > 30.0
            assert point.throughput_txn_s > 0
