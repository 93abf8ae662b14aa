"""Property tests for the metrics registry and the recency probes.

Two contracts hold no matter what streams in:

* **Replay determinism** — feeding the identical stream twice produces
  bit-identical Prometheus snapshots.
* **t-visibility probe laws** — observations are non-negative (installs
  never precede their commit on the sim clock), and replayed
  anti-entropy (duplicate deliveries, re-announced commits, any delivery
  interleaving) never changes what the probe records: its output is a
  function of the *set* of (commit, install) facts.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.obs.metrics import MetricsRegistry

OBSERVATIONS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10_000.0,
                  allow_nan=False, allow_infinity=False),  # at_ms
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),  # value
    ),
    min_size=1, max_size=200)

COUNTER_EVENTS = st.lists(
    st.tuples(st.sampled_from(["ops_total", "sheds_total", "rounds_total"]),
              st.sampled_from(["s1", "s2", "s3"]),
              st.floats(min_value=0.0, max_value=100.0,
                        allow_nan=False, allow_infinity=False)),
    min_size=0, max_size=100)


@given(observations=OBSERVATIONS, events=COUNTER_EVENTS)
@settings(max_examples=50, deadline=None)
def test_replay_is_bit_identical(observations, events):
    def build():
        registry = MetricsRegistry(window_ms=250.0)
        for at_ms, value in observations:
            registry.observe("lat_ms", at_ms, value)
        for name, node, amount in events:
            registry.collect_counter(name, lambda amount=amount: amount,
                                     node=node)
            registry.collect_gauge("depth", lambda amount=amount: amount,
                                   node=node)
        registry.faults.on_fault("partition", ("VA",), 100.0, "split")
        registry.finalize(10_000.0)
        return registry

    first, second = build(), build()
    assert first.prometheus() == second.prometheus()
    assert first.timeseries() == second.timeseries()


@given(observations=OBSERVATIONS)
@settings(max_examples=50, deadline=None)
def test_every_observation_lands_in_exactly_one_window(observations):
    registry = MetricsRegistry(window_ms=250.0)
    for at_ms, value in observations:
        registry.observe("lat_ms", at_ms, value)
    total = sum(registry.merged_quantiles("lat_ms", [index])["count"]
                for index in registry.histogram("lat_ms").windows)
    assert total == len(observations)


@given(stream=st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=1_000.0,
                        allow_nan=False, allow_infinity=False),
              st.one_of(st.integers(0, 10**6),
                        st.floats(min_value=0.0, max_value=1e6,
                                  allow_nan=False, allow_infinity=False))),
    min_size=1, max_size=1_500))
@settings(max_examples=30, deadline=None)
@example(stream=[(float(i % 300), i // 3) for i in range(1_000)])
def test_observe_is_the_digest_add_it_writes_out(stream):
    """``Histogram.observe`` buckets in its own frame: every window's
    histogram holds exactly what ``LatencyDigest.add`` builds from the same
    stream, and the run's (their merge) holds the whole stream's buckets,
    count, min and max, its mean to 1e-12 (summed window by window)."""
    from repro.loadgen.sketch import LatencyDigest

    histogram = MetricsRegistry(window_ms=250.0).histogram("lat_ms")
    windows, total = {}, LatencyDigest()
    for at_ms, value in stream:
        histogram.observe(at_ms, value)
        windows.setdefault(int(at_ms // 250.0), LatencyDigest()).add(value)
        total.add(value)
    assert sorted(histogram.windows) == sorted(windows)
    for index, digest in windows.items():
        observed = histogram.windows[index]
        assert repr((observed.buckets, observed._sum, observed._min,
                     observed._max)) == repr((digest.buckets, digest._sum,
                                              digest._min, digest._max))
    run = histogram.total
    assert run.buckets == total.buckets
    assert (run.count, run.minimum, run.maximum) == (
        total.count, total.minimum, total.maximum)
    assert run.mean == pytest.approx(total.mean, rel=1e-12, abs=0.0)


# -- recency probe laws under replayed anti-entropy --------------------------

COMMITS = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]),       # key
              st.integers(min_value=1, max_value=50),  # timestamp
              st.floats(min_value=0.0, max_value=5_000.0,
                        allow_nan=False, allow_infinity=False)),  # commit_ms
    min_size=1, max_size=50, unique_by=lambda c: (c[0], c[1]))


@given(commits=COMMITS,
       lags=st.lists(st.floats(min_value=0.0, max_value=5_000.0,
                               allow_nan=False, allow_infinity=False),
                     min_size=60, max_size=60),
       replays=st.integers(min_value=1, max_value=3),
       data=st.data())
@settings(max_examples=50, deadline=None)
def test_t_visibility_monotone_and_replay_invariant(commits, lags, replays,
                                                    data):
    """Installs replayed in any order/multiplicity record the same facts."""
    def run(shuffled_installs):
        registry = MetricsRegistry(window_ms=250.0)
        probe = registry.staleness
        for key, timestamp, commit_ms in commits:
            probe.on_commit(key, timestamp, "origin", commit_ms,
                            replicas=("origin", "r1", "r2"))
        for key, timestamp, site, at_ms in shuffled_installs:
            probe.on_install(key, timestamp, site, at_ms)
        return registry

    installs = []
    for i, (key, timestamp, commit_ms) in enumerate(commits):
        for j, site in enumerate(("r1", "r2")):
            lag = lags[(2 * i + j) % len(lags)]
            installs.append((key, timestamp, site, commit_ms + lag))

    # Anti-entropy may deliver each install several times, in any order.
    replayed = installs * replays
    shuffled = data.draw(st.permutations(replayed))
    registry = run(shuffled)
    reference = run(installs)

    summary = registry.summary("t_visibility_ms")
    expected = reference.summary("t_visibility_ms")
    # Every window holds the same buckets whatever the delivery order, so
    # the quantiles are equal too; only the mean's sum adds in another order.
    assert summary["count"] == expected["count"] == len(installs)
    assert [summary[p] for p in ("p50", "p90", "p99")] == [
        expected[p] for p in ("p50", "p90", "p99")]
    assert summary["min"] >= 0.0  # installs never precede their commit
    assert summary["min"] == expected["min"]
    assert summary["max"] == expected["max"]
    assert summary["mean"] == pytest.approx(expected["mean"])
    assert registry.counters == reference.counters
    assert registry.counter_total("staleness_installs_total") == len(installs)


# -- series handles: one storage, one recording routine ------------------------

# Window indices in any order (t-visibility is bucketed by commit time, so a
# handle's cached window must follow the clock backwards too), two series.
HANDLE_STREAM = st.lists(
    st.tuples(st.sampled_from(["s1", "s2"]),             # node label
              st.sampled_from(["handle", "by-name"]),    # which path records
              st.floats(min_value=0.0, max_value=3_000.0,
                        allow_nan=False, allow_infinity=False),  # at_ms
              st.one_of(st.integers(min_value=0, max_value=500),
                        st.floats(min_value=0.0, max_value=1e6,
                                  allow_nan=False, allow_infinity=False))),
    min_size=1, max_size=200)


@given(stream=HANDLE_STREAM)
@settings(max_examples=50, deadline=None)
def test_handles_and_by_name_calls_record_identically(stream):
    """The same stream through pre-bound handles, through the by-name API,
    and through both at once on one series: byte-identical exports."""
    by_name = MetricsRegistry(window_ms=250.0)
    by_handle = MetricsRegistry(window_ms=250.0)
    mixed = MetricsRegistry(window_ms=250.0)
    handles = {
        registry: {node: registry.histogram("lat_ms", node=node)
                   for node in ("s1", "s2")}
        for registry in (by_handle, mixed)}

    def record_by_name(registry, node, at_ms, value):
        registry.observe("lat_ms", at_ms, value, node=node)

    def record_by_handle(registry, node, at_ms, value):
        handles[registry][node].observe(at_ms, value)

    for node, path, at_ms, value in stream:
        record_by_name(by_name, node, at_ms, value)
        record_by_handle(by_handle, node, at_ms, value)
        (record_by_handle if path == "handle" else record_by_name)(
            mixed, node, at_ms, value)
    # Each observation is in the window of its own timestamp, whichever
    # window the handle wrote before it.
    expected = {}
    for node, _path, at_ms, _value in stream:
        slot = (node, int(at_ms // 250.0))
        expected[slot] = expected.get(slot, 0) + 1
    assert {(entry["labels"]["node"], window["index"]): window["count"]
            for entry in by_name.timeseries(quantiles=())["series"]
            for window in entry["windows"]} == expected
    for registry in (by_handle, mixed):
        assert registry.prometheus() == by_name.prometheus()
        assert registry.timeseries() == by_name.timeseries()


def test_a_resolved_series_is_exported_only_once_touched():
    registry = MetricsRegistry(window_ms=250.0)
    histogram = registry.histogram("lat_ms", node="s1")
    untouched = MetricsRegistry(window_ms=250.0)
    assert registry.prometheus() == untouched.prometheus() == ""
    assert registry.timeseries() == untouched.timeseries()
    assert registry.counters == registry.gauges == {}
    assert registry.summary("lat_ms", node="s1") is None
    histogram.observe(10.0, 0.0)  # touched, even by nothing
    assert registry.summary("lat_ms", node="s1")["count"] == 1
    assert "# TYPE repro_lat_ms summary" in registry.prometheus()
    # Resolving again returns the same handle: one storage per series.
    assert registry.histogram("lat_ms", node="s1") is histogram
