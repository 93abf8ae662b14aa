"""Timeline telemetry: per-window time-series and SLO availability scores.

Aggregate throughput hides what the paper's Table 3 is about: a protocol
that stalls through a partition and then catches up can post the same
totals as one that served throughout.  So a run is sliced into windows,
each scored against an SLO, and *availability* is the fraction of windows
served — per client group, per campaign phase.  The runners report each
transaction (``begin`` / ``complete``), the open-loop engine also arrivals
(``offer``) and session-pool backlog (``observe_queue_depth``).

Windows are the metrics registry's tiles (:mod:`repro.obs.metrics`): an
instant — a commit, an abort, an arrival, a queue sample — counts in the
absolute half-open tile ``[i*w, (i+1)*w)`` holding it (``window_index``),
so an instant on a boundary counts in the window that starts there.  A
window belongs to the campaign phase containing its midpoint
(``phase_tiles``).  The measured interval need not start or end on a
boundary: a tile it clips is an *edge window*, reported with its clipped
span and counted in every total, but not scored (``WindowStats.scored``).

A transaction that never commits (wedged behind an RPC into a partition,
whether it later aborts or never finishes) *stalls* the tiles it covered:
from the first tile starting at or after its begin up to, not including,
the tile it ended in.  A slow commit is latency, not a stall.  Windows are
created on first touch; latencies stream into a log-linear histogram
(:class:`~repro.loadgen.sketch.LatencyDigest`) per window, which a snapshot
copies and a cross-group sum adds up by merging: bucket sums, exact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from itertools import count
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.metrics import LatencySummary
from repro.chaos.campaign import CampaignPhase
from repro.errors import ReproError
from repro.loadgen.sketch import LatencyDigest
from repro.obs.metrics import phase_tiles, window_index


@dataclass(frozen=True)
class AvailabilitySLO:
    """What a window must deliver to count as available."""

    #: Minimum fraction of finished transactions that committed.
    min_success_fraction: float = 0.9
    #: Minimum number of commits (a silent window is not an available one).
    min_committed: int = 1
    #: Optional latency bound on the window's committed p95.
    max_p95_latency_ms: Optional[float] = None
    #: Whether a window may contain a fully stalled client and still pass.
    allow_stalls: bool = True

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


#: The counters of a window; a cross-group sum adds each (backlog peaks too).
_COUNTS = ("committed", "external_aborts", "internal_aborts", "stalled",
           "offered", "queue_depth")


@dataclass
class WindowStats:
    """Counters for one window of one client group (or of their sum)."""

    index: int
    start_ms: float
    end_ms: float
    #: False for an edge window: the measured interval clips its tile.
    scored: bool = True
    committed: int = 0
    #: Transactions the system aborted (timeouts, unreachable replicas).
    external_aborts: int = 0
    #: Transactions that aborted by their own choice (not an SLO failure).
    internal_aborts: int = 0
    #: Clients that made no progress for the entire window.
    stalled: int = 0
    #: Arrivals offered during the window (open-loop runs; 0 otherwise).
    offered: int = 0
    #: Peak sampled session-pool backlog during the window (open-loop runs).
    queue_depth: int = 0
    #: Committed latencies, summarised by :attr:`latency`.
    digest: LatencyDigest = field(default_factory=LatencyDigest)

    def __add__(self, other: "WindowStats") -> "WindowStats":
        """The same window of two groups, summed."""
        return replace(
            self, digest=LatencyDigest().merge(self.digest).merge(other.digest),
            **{name: getattr(self, name) + getattr(other, name)
               for name in _COUNTS})

    @property
    def latency(self) -> LatencySummary:
        return LatencySummary.from_digest(self.digest)

    @property
    def success_fraction(self) -> float:
        """Committed fraction of finished transactions (0 when silent)."""
        finished = self.committed + self.external_aborts
        return self.committed / finished if finished else 0.0

    def _rate_s(self, events: int) -> float:
        return 1000.0 * events / max(self.end_ms - self.start_ms, 1e-9)

    @property
    def throughput_txn_s(self) -> float:
        return self._rate_s(self.committed)

    @property
    def offered_rate_s(self) -> float:
        return self._rate_s(self.offered)

    @property
    def completed_rate_s(self) -> float:
        return self._rate_s(self.committed + self.external_aborts
                            + self.internal_aborts)

    def meets(self, slo: AvailabilitySLO) -> bool:
        bound = slo.max_p95_latency_ms
        return (self.committed >= slo.min_committed
                and self.success_fraction >= slo.min_success_fraction
                and (slo.allow_stalls or not self.stalled)
                and (bound is None or not self.committed
                     or self.latency.p95 <= bound))

    def as_dict(self) -> Dict[str, object]:
        return {"index": self.index, "start_ms": self.start_ms,
                "end_ms": self.end_ms, "scored": self.scored,
                **{name: getattr(self, name) for name in _COUNTS},
                "throughput_txn_s": self.throughput_txn_s,
                "offered_rate_s": self.offered_rate_s,
                "completed_rate_s": self.completed_rate_s,
                "latency": self.latency.as_dict()}


def availability_score(windows: Sequence[WindowStats],
                       slo: AvailabilitySLO) -> Optional[float]:
    """Fraction of the scored ``windows`` meeting the SLO (None if none)."""
    scored = [w for w in windows if w.scored]
    if not scored:
        return None
    return sum(1 for w in scored if w.meets(slo)) / len(scored)


@dataclass
class GroupTimeline:
    """The full per-window series for one client group (home region)."""

    group: str
    windows: List[WindowStats]
    window_ms: float

    def availability(self, slo: AvailabilitySLO) -> Optional[float]:
        return availability_score(self.windows, slo)

    def phase_windows(self, phase: CampaignPhase) -> List[WindowStats]:
        """Windows whose midpoint falls inside ``phase``."""
        tiles = phase_tiles(phase.start_ms, phase.end_ms, self.window_ms)
        return [w for w in self.windows if w.index in tiles]

    def phase_availability(self, phases: Sequence[CampaignPhase],
                           slo: AvailabilitySLO) -> Dict[str, Optional[float]]:
        return {phase.name: availability_score(self.phase_windows(phase), slo)
                for phase in phases}


def sum_groups(groups: Dict[str, GroupTimeline],
               window_ms: float) -> GroupTimeline:
    """Every group's series summed window by window: the whole cluster's."""
    rows = zip(*(timeline.windows for timeline in groups.values()))
    return GroupTimeline(group="all", window_ms=window_ms,
                         windows=[sum(row[1:], row[0]) for row in rows])


class TimelineTelemetry:
    """Records transactions, arrivals and backlog into per-group windows.

    ``begin`` returns an opaque handle for ``complete``; only attempts in
    flight are held individually.
    """

    def __init__(self, window_ms: float = 500.0,
                 slo: Optional[AvailabilitySLO] = None):
        if window_ms <= 0:
            raise ReproError("telemetry window must be positive")
        self.window_ms = float(window_ms)
        self.slo = slo or AvailabilitySLO()
        self._interval: Optional[Tuple[float, float]] = None
        self._tiles = range(0)  # the tiles the measured interval touches
        #: Group -> tile index -> its window, created on first touch.
        self._windows: Dict[str, Dict[int, WindowStats]] = {}
        #: Attempts in flight: handle -> (group, begin_ms).
        self._open: Dict[int, Tuple[str, float]] = {}
        self._handles = count()

    def start_run(self, start_ms: float, end_ms: float) -> None:
        """Fix the measured interval ``[start_ms, end_ms)``."""
        if end_ms <= start_ms:
            raise ReproError("telemetry run interval must be non-empty")
        self._interval = (float(start_ms), float(end_ms))
        last = window_index(end_ms, self.window_ms)
        self._tiles = range(window_index(start_ms, self.window_ms),
                            last + (last * self.window_ms < end_ms))

    def _bounds(self) -> Tuple[float, float]:
        if self._interval is None:
            raise ReproError("call start_run() before recording telemetry")
        return self._interval

    def _window(self, group: str, index: int) -> WindowStats:
        windows = self._windows.setdefault(group, {})
        window = windows.get(index)
        if window is None:
            start, end = self._interval
            low, high = index * self.window_ms, (index + 1) * self.window_ms
            window = windows[index] = WindowStats(
                index, max(low, start), min(high, end),
                scored=start <= low and high <= end)
        return window

    def _window_at(self, group: str, at_ms: float) -> Optional[WindowStats]:
        """The window holding instant ``at_ms`` (None outside the interval)."""
        start, end = self._bounds()
        if start <= at_ms < end:
            return self._window(group, window_index(at_ms, self.window_ms))
        return None

    def _stalled(self, begin_ms: float, until: int) -> range:
        """The interval's tiles from the first one starting at or after
        ``begin_ms`` up to, not including, tile ``until``."""
        first = window_index(begin_ms, self.window_ms)
        first += first * self.window_ms < begin_ms
        return range(max(first, self._tiles.start),
                     min(until, self._tiles.stop))

    def begin(self, group: str, now_ms: float) -> int:
        self._windows.setdefault(group, {})
        handle = next(self._handles)
        self._open[handle] = (group, now_ms)
        return handle

    def complete(self, attempt: int, result) -> None:
        group, begin_ms = self._open.pop(attempt)
        window = self._window_at(group, result.end_ms)
        if window is not None:
            if result.committed:
                window.committed += 1
                window.digest.add(result.end_ms - begin_ms)
            elif result.internal_abort:
                window.internal_aborts += 1
            else:
                window.external_aborts += 1
        if not result.committed:
            until = window_index(result.end_ms, self.window_ms)
            for index in self._stalled(begin_ms, until):
                self._window(group, index).stalled += 1

    def offer(self, group: str, now_ms: float) -> None:
        """Count one offered arrival (open-loop runs call this per arrival)."""
        window = self._window_at(group, now_ms)
        if window is not None:
            window.offered += 1

    def observe_queue_depth(self, group: str, now_ms: float,
                            depth: int) -> None:
        """Record a sampled backlog depth (per window, the peak is kept)."""
        window = self._window_at(group, now_ms)
        if window is not None and depth > window.queue_depth:
            window.queue_depth = depth

    def build(self) -> Dict[str, GroupTimeline]:
        """Snapshot the per-group timelines: one window per tile of the
        measured interval.

        Non-destructive (windows are copied, each histogram merged into a
        fresh one), so it can be called again after further recording;
        attempts still in flight stall the snapshot's windows they have
        covered.
        """
        self._bounds()
        timelines = {}
        for group in list(self._windows):
            windows = [self._window(group, index) for index in self._tiles]
            timelines[group] = GroupTimeline(group, [
                replace(w, digest=LatencyDigest().merge(w.digest))
                for w in windows], self.window_ms)
        for group, begin_ms in self._open.values():
            windows = timelines[group].windows
            for index in self._stalled(begin_ms, self._tiles.stop):
                windows[index - self._tiles.start].stalled += 1
        return timelines
