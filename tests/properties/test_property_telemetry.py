"""Property test: the availability telemetry and the registry share one tiling.

A run is drawn whole — a window length, a measured interval that need not
start on a tile boundary, transactions that commit, abort by their own
choice, are aborted by the system or never finish, arrivals and backlog
samples — with instants drawn on tile boundaries as often as between them.
Then, for every window of every build:

* the telemetry and a registry :class:`~repro.obs.metrics.Histogram` fed the
  same instants put each in the same tile ``int(t // w)``;
* every attempt completed inside the interval is counted in exactly one
  window, and the per-window sums equal the interval's completions,
  arrivals and backlog peaks;
* no window both stalls and counts the same attempt, and a window stalls
  exactly the attempts that covered it without committing.
"""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from repro.chaos.telemetry import TimelineTelemetry
from repro.obs.metrics import Histogram, window_index

OUTCOMES = ("committed", "internal", "external", "never")


class Result:
    def __init__(self, end_ms, outcome):
        self.end_ms = end_ms
        self.committed = outcome == "committed"
        self.internal_abort = outcome == "internal"


@st.composite
def runs(draw):
    window_ms = draw(st.one_of(st.integers(1, 300).map(float),
                               st.floats(0.5, 300.0)))
    start_ms = draw(st.one_of(
        st.floats(0.0, 2_000.0),
        st.integers(0, 20).map(lambda k: k * window_ms)))
    end_ms = start_ms + draw(st.one_of(
        st.floats(0.1, 2_000.0), st.integers(1, 8).map(lambda k: k * window_ms)))
    low, high = max(0.0, start_ms - 2 * window_ms), end_ms + 2 * window_ms
    instant = st.one_of(
        st.floats(low, high),
        st.integers(int(low // window_ms), int(high // window_ms) + 1)
        .map(lambda k: k * window_ms))
    attempts = []
    for begin_ms, outcome, length in draw(st.lists(st.tuples(
            instant, st.sampled_from(OUTCOMES), st.one_of(
                st.floats(0.0, 3 * window_ms),
                st.integers(0, 3).map(lambda k: k * window_ms))),
            max_size=12)):
        end = window_index(begin_ms + length, window_ms) * window_ms
        attempts.append((begin_ms, None if outcome == "never" else
                         draw(st.sampled_from([begin_ms + length,
                                               max(begin_ms, end)])),
                         outcome))
    return dict(window_ms=window_ms, start_ms=start_ms, end_ms=end_ms,
                attempts=attempts, arrivals=draw(st.lists(instant, max_size=12)),
                samples=draw(st.lists(st.tuples(instant, st.integers(0, 50)),
                                      max_size=12)))


def record(run, attempts):
    telemetry = TimelineTelemetry(window_ms=run["window_ms"])
    telemetry.start_run(run["start_ms"], run["end_ms"])
    for begin_ms, end_ms, outcome in attempts:
        handle = telemetry.begin("VA", begin_ms)
        if end_ms is not None:
            telemetry.complete(handle, Result(end_ms, outcome))
    return telemetry


def tiles(run, instants):
    """What a registry histogram records of the in-interval instants."""
    histogram = Histogram(run["window_ms"])
    for at_ms in instants:
        if run["start_ms"] <= at_ms < run["end_ms"]:
            histogram.observe(at_ms, 0.0)
    return {index: digest.count for index, digest in histogram.windows.items()}


def counted(windows, field):
    return {w.index: getattr(w, field) for w in windows if getattr(w, field)}


@given(run=runs())
@example(run=dict(window_ms=100.0, start_ms=0.0, end_ms=300.0,
                  attempts=[(10.0, 100.0, "committed")], arrivals=[100.0],
                  samples=[]))
@settings(max_examples=100, deadline=None)
def test_one_tiling_counts_each_instant_once(run):
    w, start, end = run["window_ms"], run["start_ms"], run["end_ms"]
    telemetry = record(run, run["attempts"])
    for depth_at, depth in run["samples"]:
        telemetry.observe_queue_depth("VA", depth_at, depth)
    for at_ms in run["arrivals"]:
        telemetry.offer("VA", at_ms)
    if not run["attempts"]:
        telemetry.begin("VA", end)  # the group exists; this stalls nothing
    windows = telemetry.build()["VA"].windows
    assert [x.index for x in windows] == list(range(
        windows[0].index, windows[0].index + len(windows)))
    assert windows[0].start_ms == start and windows[-1].end_ms == end

    # The same tile as the registry, for every kind of instant.
    ends = {outcome: [e for _, e, o in run["attempts"] if o == outcome]
            for outcome in OUTCOMES}
    assert counted(windows, "committed") == tiles(run, ends["committed"])
    assert counted(windows, "internal_aborts") == tiles(run, ends["internal"])
    assert counted(windows, "external_aborts") == tiles(run, ends["external"])
    assert counted(windows, "offered") == tiles(run, run["arrivals"])
    peaks = Counter()
    for at_ms, depth in run["samples"]:
        if start <= at_ms < end:
            index = window_index(at_ms, w)
            peaks[index] = max(peaks[index], depth)
    assert counted(windows, "queue_depth") == +peaks

    # Per-window sums are the interval's completions.
    inside = [a for a in run["attempts"]
              if a[1] is not None and start <= a[1] < end]
    assert sum(x.committed + x.internal_aborts + x.external_aborts
               for x in windows) == len(inside)
    assert sum(x.latency.count for x in windows) == sum(
        1 for a in inside if a[2] == "committed")

    # A window stalls exactly the attempts that covered it uncommitted.
    for window in windows:
        covering = [a for a in run["attempts"] if a[2] != "committed"
                    and a[0] <= window.index * w
                    and (a[1] is None or window_index(a[1], w) > window.index)]
        assert window.stalled == len(covering)

    # Each attempt alone: counted once when inside, never where it stalls.
    for attempt in run["attempts"]:
        alone = record(run, [attempt]).build()["VA"].windows
        counts = [x.committed + x.internal_aborts + x.external_aborts
                  for x in alone]
        assert sum(counts) == (attempt in inside)
        assert not any(count and x.stalled for count, x in zip(counts, alone))
