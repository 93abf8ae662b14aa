"""Acceptance: memory is bounded by the session pool, not the user count.

The issue's claim is that 10^6 logical users cost O(pool size) memory.
These tests pin the mechanism at two orders of magnitude apart (10^3 vs
10^5 users, identical otherwise): the number of protocol clients built is
exactly the pool size both times, latency storage stays a bounded digest
rather than a per-request list, and the measured allocation peak of the
run barely moves.
"""

import tracemalloc

from repro.hat.testbed import Scenario, build_testbed
from repro.hat.testbed import Testbed
from repro.loadgen import OpenLoopConfig, PoissonArrivals, run_open_loop


def _config(users):
    return OpenLoopConfig(
        protocol="eventual",
        scenario=Scenario(regions=["VA"], servers_per_cluster=2,
                          fixed_latency_ms=1.0),
        arrivals=PoissonArrivals(150.0),
        users=users,
        sessions_per_cluster=4,
        duration_ms=1_000.0,
        seed=5,
    )


def _run_counting_clients(users, monkeypatch):
    """Run once, returning (stats, number of protocol clients built)."""
    created = []
    original = Testbed.make_client

    def counting(self, *args, **kwargs):
        client = original(self, *args, **kwargs)
        created.append(client)
        return client

    monkeypatch.setattr(Testbed, "make_client", counting)
    stats = run_open_loop(_config(users))
    return stats, len(created)


def test_clients_scale_with_pool_not_users(monkeypatch):
    small_stats, small_clients = _run_counting_clients(1_000, monkeypatch)
    big_stats, big_clients = _run_counting_clients(100_000, monkeypatch)
    assert small_clients == big_clients == small_stats.sessions
    # Same arrival process, same seed: the offered load is identical; only
    # the user-id space grew.
    assert big_stats.offered == small_stats.offered
    assert big_stats.users == 100 * small_stats.users


def test_latency_storage_is_bounded():
    stats = run_open_loop(_config(100_000))
    # A sample list would hold one float per commit; the digest holds at
    # most buffer + centroids regardless of how many commits streamed in.
    assert stats.digest.count == stats.committed
    assert len(stats.digest._means) + len(stats.digest._buffer) < 700


def test_allocation_peak_independent_of_user_count():
    def measured_peak(users):
        config = _config(users)
        testbed = build_testbed(config.scenario)
        tracemalloc.start()
        try:
            run_open_loop(config, testbed=testbed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    small_peak = measured_peak(1_000)
    big_peak = measured_peak(100_000)
    # 100x the logical users must not show up as allocation growth; allow
    # generous noise (interpreter caches, tracemalloc itself) but nothing
    # resembling per-user state.
    assert big_peak < small_peak * 1.5 + 256 * 1024
