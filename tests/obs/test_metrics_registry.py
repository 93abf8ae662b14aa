"""Unit tests for the metrics registry and the recency probes."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry, phase_tiles
from repro.obs.staleness import StalenessProbe


class TestCounters:
    def test_inc_and_labels(self):
        """Readers of one series add up; a label set is its own series."""
        registry = MetricsRegistry()
        registry.collect_counter("requests_total", lambda: 1.0)
        registry.collect_counter("requests_total", lambda: 2.0)
        registry.collect_counter("requests_total", lambda: 1.0, node="s1")
        assert registry.counters == {
            ("requests_total", ()): 3.0,
            ("requests_total", (("node", "s1"),)): 1.0}
        assert registry.counter_total("requests_total") == 4.0

    def test_series_identity_survives_the_label_memo(self):
        """Keyword order does not split a series; labels that hash equal
        but stringify differently (1, 1.0, True) do not merge into one."""
        registry = MetricsRegistry()
        for _ in range(2):
            registry.collect_counter("sheds_total", lambda: 1.0, node="s1",
                                     reason="full")
            registry.collect_counter("sheds_total", lambda: 1.0,
                                     reason="full", node="s1")
        key = ("sheds_total", (("node", "s1"), ("reason", "full")))
        assert registry.counters == {key: 4.0}
        for shard in (1, 1.0, True, "1"):
            registry.collect_counter("by_shard_total", lambda: 1.0, shard=shard)
            registry.collect_counter("by_shard_total", lambda: 1.0, shard=shard)
        assert {items[0][1]: value
                for (name, items), value in registry.counters.items()
                if name == "by_shard_total"} == {
                    "1": 4.0, "1.0": 2.0, "True": 2.0}

    def test_unknown_counter_is_zero(self):
        registry = MetricsRegistry()
        assert registry.counters == {}
        assert registry.counter_total("nope") == 0.0

    def test_labels_may_be_called_what_the_parameters_are_called(self):
        """``name``, ``value``, ``amount``, ``read`` and ``at_ms`` are
        ordinary label names: the recording parameters are positional-only."""
        registry = MetricsRegistry(window_ms=100.0)
        for _ in range(2):
            registry.collect_counter("ops_total", lambda: 2.0, name="x",
                                     amount="y")
            registry.observe("lat_ms", 50.0, 7.0, name="x", at_ms="t",
                             value="v")
        registry.collect_gauge("depth_max", lambda: 3.0, name="x", read="r")
        labels = (("amount", "y"), ("name", "x"))
        assert registry.counters == {("ops_total", labels): 4.0}
        assert registry.gauges == {
            ("depth_max", (("name", "x"), ("read", "r"))): 3.0}
        assert registry.summary("lat_ms", name="x", at_ms="t",
                                value="v")["count"] == 2
        assert list(registry.histogram("lat_ms", name="x", at_ms="t",
                                       value="v").windows) == [0]
        text = registry.prometheus()
        assert 'repro_ops_total{amount="y",name="x"} 4' in text
        assert 'repro_depth_max{name="x",read="r"} 3' in text
        assert 'repro_lat_ms_count{at_ms="t",name="x",value="v"} 2' in text


class TestWindows:
    def test_observations_bucket_into_absolute_tiles(self):
        registry = MetricsRegistry(window_ms=100.0)
        registry.observe("lat_ms", 10.0, 5.0)
        registry.observe("lat_ms", 150.0, 7.0)
        registry.observe("lat_ms", 199.0, 9.0)
        assert sorted(registry.histogram("lat_ms").windows) == [0, 1]
        assert registry.merged_quantiles("lat_ms", [1])["count"] == 2

    def test_boundary_observation_in_exactly_one_window(self):
        registry = MetricsRegistry(window_ms=100.0)
        # Exactly on the tile edge: half-open [100, 200) owns it.
        registry.observe("lat_ms", 100.0, 1.0)
        assert sorted(registry.histogram("lat_ms").windows) == [1]
        total = sum(registry.merged_quantiles("lat_ms", [i])["count"]
                    for i in (0, 1, 2)
                    if registry.merged_quantiles("lat_ms", [i]) is not None)
        assert total == 1

    def test_summary_exact_stats(self):
        registry = MetricsRegistry(window_ms=100.0)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.observe("lat_ms", 50.0, value)
        summary = registry.summary("lat_ms")
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0

    def test_a_negative_or_nan_observation_raises(self):
        """``observe`` buckets in its own frame, and refuses what
        ``LatencyDigest.add`` refuses."""
        registry = MetricsRegistry()
        for value in (-0.5, float("nan")):
            with pytest.raises(ValueError):
                registry.observe("lat_ms", 10.0, value)
        assert registry.summary("lat_ms") is None  # nothing was touched
        registry.observe("lat_ms", 10.0, -0.0)  # zero's bucket
        assert registry.summary("lat_ms")["p50"] == 0.0

    def test_empty_summary_is_none(self):
        registry = MetricsRegistry()
        assert registry.summary("lat_ms") is None
        assert registry.merged_quantiles("lat_ms", [0]) is None

    def test_phase_tiles_use_midpoints(self):
        assert list(phase_tiles(0.0, 200.0, 100.0)) == [0, 1]
        assert list(phase_tiles(100.0, 300.0, 100.0)) == [1, 2]
        # A phase off the tile grid owns the tiles whose midpoint it holds:
        # [40, 160) holds 50 and 150; [60, 140) holds neither.
        assert list(phase_tiles(40.0, 160.0, 100.0)) == [0, 1]
        assert list(phase_tiles(60.0, 140.0, 100.0)) == []
        assert list(phase_tiles(488.9, 888.9, 200.0)) == [2, 3]


class TestFaultWindows:
    def test_on_fault_opens_and_closes(self):
        registry = MetricsRegistry()
        registry.faults.on_fault("partition", ("VA", "OR"), 100.0, "split")
        registry.faults.on_fault("heal", (), 300.0, "heal")
        assert len(registry.fault_windows) == 1
        window = registry.fault_windows[0]
        assert window.kind == "partition"
        assert window.start_ms == 100.0
        assert window.end_ms == 300.0

    def test_marker_kinds_are_zero_width(self):
        registry = MetricsRegistry()
        registry.faults.on_fault("scale-out", ("c0",), 150.0, "join")
        assert len(registry.fault_windows) == 1
        window = registry.fault_windows[0]
        assert window.start_ms == window.end_ms == 150.0

    def test_finalize_closes_open_windows(self):
        registry = MetricsRegistry()
        registry.faults.on_fault("partition", ("VA",), 100.0, "split")
        registry.finalize(500.0)
        assert registry.fault_windows[0].end_ms == 500.0


class TestExports:
    def _populated(self):
        registry = MetricsRegistry(window_ms=100.0)
        registry.collect_counter("ops_total", lambda: 3.0, node="s1")
        registry.collect_gauge("depth", lambda: 2.0)
        registry.observe("lat_ms", 50.0, 10.0)
        registry.observe("lat_ms", 150.0, 20.0)
        registry.faults.on_fault("partition", ("VA",), 100.0, "split")
        registry.finalize(200.0)
        return registry

    def test_timeseries_shape_and_fault_join(self):
        payload = self._populated().timeseries()
        decoded = json.loads(json.dumps(payload, allow_nan=False))
        assert decoded["window_ms"] == 100.0
        series = {s["name"]: s for s in decoded["series"]}
        windows = series["lat_ms"]["windows"]
        assert [w["index"] for w in windows] == [0, 1]
        assert windows[0]["faults"] == []
        assert windows[1]["faults"] == [1]
        assert decoded["fault_windows"][0]["kind"] == "partition"

    def test_prometheus_exposition(self):
        text = self._populated().prometheus()
        assert "# TYPE repro_ops_total counter" in text
        assert 'repro_ops_total{node="s1"} 3' in text
        assert "# TYPE repro_depth gauge" in text
        assert "# TYPE repro_lat_ms summary" in text
        assert 'repro_lat_ms{quantile="0.5"}' in text
        assert "repro_lat_ms_count 2" in text
        # Deterministic: same registry renders the same text.
        assert text == self._populated().prometheus()


class TestStalenessProbe:
    def test_t_visibility_bucketed_by_commit_time(self):
        registry = MetricsRegistry(window_ms=100.0)
        probe = registry.staleness
        probe.on_commit("k", 1, "s1", 50.0)
        probe.on_install("k", 1, "s2", 450.0)
        # The 400 ms lag lands in the commit's window, not the install's.
        assert sorted(registry.histogram("t_visibility_ms").windows) == [0]
        assert registry.summary("t_visibility_ms")["max"] == 400.0

    def test_duplicate_installs_and_commits_are_idempotent(self):
        registry = MetricsRegistry()
        probe = registry.staleness
        probe.on_commit("k", 1, "s1", 0.0)
        probe.on_commit("k", 1, "s9", 99.0)  # replayed announcement: no-op
        probe.on_install("k", 1, "s2", 40.0)
        probe.on_install("k", 1, "s2", 80.0)  # replayed anti-entropy
        probe.on_install("k", 1, "s1", 60.0)  # origin install: not lag
        assert registry.counter_total("staleness_commits_total") == 1.0
        assert registry.counter_total("staleness_installs_total") == 1.0
        assert registry.summary("t_visibility_ms")["count"] == 1

    def test_replica_set_frozen_at_commit(self):
        registry = MetricsRegistry()
        probe = registry.staleness
        probe.on_commit("k", 1, "s1", 0.0, replicas=("s1", "s2"))
        probe.on_install("k", 1, "s2", 40.0)
        # A later rebalance streaming the version to a brand-new owner is
        # bootstrap catch-up, not replication lag.
        probe.on_install("k", 1, "s3", 900.0)
        assert registry.summary("t_visibility_ms")["count"] == 1
        assert registry.summary("t_visibility_ms")["max"] == 40.0

    def test_a_version_installed_everywhere_it_went_is_forgotten(self):
        """The probe's pending set holds versions still owed an install: it
        read 1 after a two-replica version's only remote install."""
        registry = MetricsRegistry()
        probe = registry.staleness
        probe.on_commit("k", 1, "s1", 0.0, replicas=("s1", "s2"))
        probe.on_commit("k", 2, "s1", 5.0, replicas=("s1", "s2", "s3"))
        assert len(probe._pending) == 2
        probe.on_install("k", 1, "s1", 0.0)  # the origin's own install
        assert len(probe._pending) == 2
        probe.on_install("k", 1, "s2", 40.0)
        assert len(probe._pending) == 1
        probe.on_install("k", 2, "s3", 45.0)
        probe.on_install("k", 2, "s3", 50.0)  # a duplicate covers nothing
        assert len(probe._pending) == 1
        probe.on_install("k", 2, "s2", 55.0)
        assert len(probe._pending) == 0
        # A replay to a forgotten version is ignored as a duplicate was, and
        # re-announcing it is still a no-op: the ledger remembers it.
        probe.on_install("k", 1, "s2", 90.0)
        probe.on_commit("k", 1, "s9", 99.0, replicas=("s9", "s2"))
        probe.on_install("k", 1, "s2", 120.0)
        assert len(probe._pending) == 0
        assert registry.counter_total("staleness_commits_total") == 2.0
        assert registry.counter_total("staleness_installs_total") == 3.0
        assert registry.summary("t_visibility_ms")["count"] == 3
        assert registry.summary("t_visibility_ms")["max"] == 50.0
        assert len(probe._ledger.get("k", ())) == 2

    def test_a_version_with_no_other_replica_is_never_pending(self):
        probe = MetricsRegistry().staleness
        probe.on_commit("k", 1, "s1", 0.0, replicas=("s1",))
        assert len(probe._pending) == 0
        assert len(probe._ledger.get("k", ())) == 1

    def test_a_version_without_a_frozen_replica_set_stays_pending(self):
        probe = MetricsRegistry().staleness
        probe.on_commit("k", 1, "s1", 0.0)
        probe.on_install("k", 1, "s2", 40.0)
        assert len(probe._pending) == 1

    def test_unknown_version_install_ignored(self):
        registry = MetricsRegistry()
        registry.staleness.on_install("k", 7, "s2", 10.0)
        assert registry.summary("t_visibility_ms") is None

    def test_k_staleness_ranks_against_ledger(self):
        registry = MetricsRegistry()
        probe = registry.staleness
        for timestamp in (1, 2, 3):
            probe.on_commit("k", timestamp, "s1", float(timestamp))
        probe.on_read("k", 3, 10.0)   # freshest
        probe.on_read("k", 1, 10.0)   # two behind
        probe.on_read("k", None, 10.0)  # found nothing: behind all three
        probe.on_read("other", None, 10.0)  # no ledger: k = 0
        summary = registry.summary("k_staleness_versions")
        assert summary["count"] == 4
        assert summary["min"] == 0.0
        assert summary["max"] == 3.0
        assert registry.counter_total("staleness_reads_total") == 4.0
        assert len(probe._ledger.get("k", ())) == 3


class TestOptIn:
    def test_metrics_off_by_default(self):
        from repro.hat.testbed import Scenario, build_testbed
        testbed = build_testbed(Scenario(regions=["VA"],
                                         servers_per_cluster=1, seed=0))
        assert testbed.metrics is None
        assert testbed.network.metrics is None

    def test_metrics_opt_in_installs_registry(self):
        from repro.hat.testbed import Scenario, build_testbed
        testbed = build_testbed(Scenario(regions=["VA"],
                                         servers_per_cluster=1, seed=0,
                                         metrics=True,
                                         metrics_window_ms=250.0))
        assert isinstance(testbed.metrics, MetricsRegistry)
        assert testbed.metrics.window_ms == 250.0
        assert isinstance(testbed.metrics.staleness, StalenessProbe)
