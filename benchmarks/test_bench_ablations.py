"""Ablation benchmarks: design choices beyond the paper's headline figures."""

from repro.bench.ablations import (
    anti_entropy_visibility,
    coordinated_baselines,
    stickiness_ablation,
)


def test_ablation_anti_entropy_interval(bench_print):
    """Visibility lag at remote clusters grows with the anti-entropy interval,
    while the number of gossip messages shrinks — the knob trades staleness
    for background load."""
    points = anti_entropy_visibility(intervals_ms=(10.0, 100.0, 500.0), writes=15)
    lines = [f"{'interval (ms)':>15} {'visibility lag (ms)':>21} {'gossip msgs':>13}"]
    for point in points:
        lines.append(f"{point.interval_ms:>15.0f} {point.mean_visibility_ms:>21.1f} "
                     f"{point.anti_entropy_messages:>13}")
    bench_print("Ablation: anti-entropy interval", "\n".join(lines))

    assert points[0].mean_visibility_ms < points[-1].mean_visibility_ms
    # Per committed write, the slow interval sends no more messages than the fast one.
    assert points[-1].anti_entropy_messages <= points[0].anti_entropy_messages * 1.5


def test_ablation_stickiness(bench_print):
    """Sticky sessions repair every stale read from the session cache;
    non-sticky sessions observe read-your-writes violations (Section 5.1.3)."""
    result = stickiness_ablation(sessions=6)
    bench_print("Ablation: stickiness and read-your-writes", "\n".join([
        f"sessions:                       {result.sessions}",
        f"violations with sticky cache:   {result.sticky_violations}",
        f"violations without stickiness:  {result.non_sticky_violations}",
    ]))
    assert result.sticky_violations == 0
    assert result.non_sticky_violations >= result.sessions * 0.8


def test_ablation_coordinated_baselines(bench_print):
    """Master, two-phase locking, and quorum latency on a VA+OR deployment:
    every coordinated protocol pays wide-area round trips, and two-phase
    locking pays the most (one per lock plus commit)."""
    points = coordinated_baselines(duration_ms=800.0)
    lines = [f"{'protocol':>20} {'mean (ms)':>11} {'p95 (ms)':>10} "
             f"{'txn/s':>8} {'aborts':>8}"]
    for point in points:
        lines.append(f"{point.protocol:>20} {point.mean_latency_ms:>11.1f} "
                     f"{point.p95_latency_ms:>10.1f} {point.throughput_txn_s:>8.1f} "
                     f"{point.abort_rate:>8.2f}")
    bench_print("Ablation: coordinated (non-HAT) baselines", "\n".join(lines))

    by_protocol = {point.protocol: point for point in points}
    # Every coordinated protocol pays at least one WAN round trip per txn.
    for point in points:
        assert point.mean_latency_ms > 30.0
    # 2PL is the most expensive: a lock round trip per operation plus 2PC.
    assert by_protocol["two-phase-locking"].mean_latency_ms > \
        by_protocol["master"].mean_latency_ms
