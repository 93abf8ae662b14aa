"""Timeline telemetry: per-window time-series and SLO availability scores.

Aggregate throughput hides exactly what the paper's Table 3 is about: a
protocol that stalls for the whole partition and then catches up can post
the same aggregate numbers as one that served throughout.  This module
slices a run into fixed windows and scores each window against a simple
SLO, so "availability" becomes *the fraction of windows in which the
protocol actually served* — per client group, per campaign phase.

The bench runner drives it: :meth:`TimelineTelemetry.begin` when a client
starts a transaction, :meth:`TimelineTelemetry.complete` when it finishes,
:meth:`TimelineTelemetry.build` after the run.  A transaction that spans a
whole window without ever committing — a client wedged behind an RPC into a
partition, whether it later aborts on timeout or never finishes at all —
counts as a *stall* in every window it fully covers; a slow transaction
that eventually commits is latency, not a stall.

Aggregation is **streaming**: every completion buckets immediately into its
window's counters, and latencies stream into a bounded
:class:`~repro.loadgen.sketch.LatencyDigest` per window instead of a sample
list, so memory is O(windows + in-flight transactions) no matter how many
requests an open-loop run pushes through.  The open-loop engine adds two
more per-window series via :meth:`TimelineTelemetry.offer` (arrivals, i.e.
offered load) and :meth:`TimelineTelemetry.observe_queue_depth` (session
pool backlog), which is what makes *overload* observable — a saturated run
shows offered pulling away from completed and queue depth climbing, not
just higher latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.campaign import CampaignPhase
from repro.errors import ReproError


def _empty_summary():
    # Imported lazily: repro.bench's package __init__ pulls in the experiment
    # module, which itself imports this telemetry layer.
    from repro.bench.metrics import LatencySummary

    return LatencySummary.empty()


def _summary_from_digest(digest):
    from repro.bench.metrics import LatencySummary

    return LatencySummary.from_digest(digest)


def _new_digest():
    from repro.loadgen.sketch import LatencyDigest

    return LatencyDigest()


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
        return {
            "min_success_fraction": self.min_success_fraction,
            "min_committed": self.min_committed,
            "max_p95_latency_ms": self.max_p95_latency_ms,
            "allow_stalls": self.allow_stalls,
        }


@dataclass
class WindowStats:
    """Counters for one time window of one client group."""

    index: int
    start_ms: float
    end_ms: float
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
    #: :class:`~repro.bench.metrics.LatencySummary` of committed latencies.
    latency: object = field(default_factory=_empty_summary)

    @property
    def success_fraction(self) -> float:
        """Committed fraction of finished transactions (0 when silent)."""
        finished = self.committed + self.external_aborts
        return self.committed / finished if finished else 0.0

    @property
    def throughput_txn_s(self) -> float:
        span_ms = max(self.end_ms - self.start_ms, 1e-9)
        return 1000.0 * self.committed / span_ms

    @property
    def offered_rate_s(self) -> float:
        span_ms = max(self.end_ms - self.start_ms, 1e-9)
        return 1000.0 * self.offered / span_ms

    @property
    def completed_rate_s(self) -> float:
        span_ms = max(self.end_ms - self.start_ms, 1e-9)
        return 1000.0 * (self.committed + self.external_aborts
                         + self.internal_aborts) / span_ms

    def meets(self, slo: AvailabilitySLO) -> bool:
        if self.committed < slo.min_committed:
            return False
        if self.success_fraction < slo.min_success_fraction:
            return False
        if not slo.allow_stalls and self.stalled:
            return False
        if (slo.max_p95_latency_ms is not None
                and self.latency.p95 is not None
                and self.latency.p95 > slo.max_p95_latency_ms):
            return False
        return True

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "committed": self.committed,
            "external_aborts": self.external_aborts,
            "internal_aborts": self.internal_aborts,
            "stalled": self.stalled,
            "offered": self.offered,
            "queue_depth": self.queue_depth,
            "throughput_txn_s": self.throughput_txn_s,
            "latency": self.latency.as_dict(),
        }


def availability_score(windows: Sequence[WindowStats],
                       slo: AvailabilitySLO) -> Optional[float]:
    """Fraction of ``windows`` meeting the SLO (None for an empty slice)."""
    if not windows:
        return None
    return sum(1 for w in windows if w.meets(slo)) / len(windows)


def join_fault_windows(windows: List[Dict[str, object]],
                       fault_windows: Sequence[Dict[str, object]],
                       ) -> List[Dict[str, object]]:
    """Stamp each time-series window with the fault windows it overlapped.

    ``windows`` are dicts with ``start_ms``/``end_ms`` (any windowed export
    — the metrics registry's histogram series, or ``WindowStats.as_dict()``
    rows); ``fault_windows`` are ``FaultWindow.as_dict()`` records.  Each
    window gains a ``"faults"`` list of overlapping fault-window ids, which
    is what lets a reader line a staleness spike up against the partition
    that caused it without eyeballing timestamps.  A still-open fault
    (``end_ms`` None) overlaps everything after its start; a zero-width
    marker (scale-out, scale-in) is attributed to the single window
    containing its instant.
    """
    for entry in windows:
        w_start = entry["start_ms"]
        w_end = entry["end_ms"]
        hits = []
        for fault in fault_windows:
            f_start = fault["start_ms"]
            f_end = fault["end_ms"]
            if f_end is None:
                f_end = float("inf")
            if f_end == f_start:
                if w_start <= f_start < w_end:
                    hits.append(fault["window_id"])
            elif w_start < f_end and w_end > f_start:
                hits.append(fault["window_id"])
        entry["faults"] = hits
    return windows


@dataclass
class GroupTimeline:
    """The full per-window series for one client group (home region)."""

    group: str
    windows: List[WindowStats]

    def availability(self, slo: AvailabilitySLO) -> Optional[float]:
        return availability_score(self.windows, slo)

    def phase_windows(self, phase: CampaignPhase) -> List[WindowStats]:
        """Windows whose midpoint falls inside ``phase``."""
        return [w for w in self.windows
                if phase.contains((w.start_ms + w.end_ms) / 2.0)]

    def phase_availability(self, phases: Sequence[CampaignPhase],
                           slo: AvailabilitySLO) -> Dict[str, Optional[float]]:
        return {phase.name: availability_score(self.phase_windows(phase), slo)
                for phase in phases}


class _Attempt:
    """One in-flight transaction tracked from begin to completion."""

    __slots__ = ("group", "start_ms", "end_ms", "committed", "internal")

    def __init__(self, group: str, start_ms: float):
        self.group = group
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.committed = False
        self.internal = False


class TimelineTelemetry:
    """Collects per-transaction begin/complete events and builds timelines.

    Aggregation is streaming: counters and latency digests update at each
    ``complete``/``offer``/``observe_queue_depth`` call, and only attempts
    still in flight are held individually (for end-of-run stall
    accounting), so memory does not grow with the number of requests.
    """

    def __init__(self, window_ms: float = 500.0,
                 slo: Optional[AvailabilitySLO] = None):
        if window_ms <= 0:
            raise ReproError("telemetry window must be positive")
        self.window_ms = float(window_ms)
        self.slo = slo or AvailabilitySLO()
        self._bounds: Optional[tuple] = None
        self._window_count = 0
        self._windows: Dict[str, List[WindowStats]] = {}
        self._digests: Dict[Tuple[str, int], object] = {}
        #: Attempts begun but not yet completed (in-flight stall candidates).
        self._open: Dict[_Attempt, None] = {}

    # -- recording (driven by the bench runner's client loop) -----------------
    def start_run(self, start_ms: float, end_ms: float) -> None:
        """Fix the measured interval; windows tile [start_ms, end_ms)."""
        if end_ms <= start_ms:
            raise ReproError("telemetry run interval must be non-empty")
        self._bounds = (float(start_ms), float(end_ms))
        self._window_count = max(1, math.ceil((end_ms - start_ms)
                                              / self.window_ms))

    def _group_windows(self, group: str) -> List[WindowStats]:
        windows = self._windows.get(group)
        if windows is None:
            start, end = self._require_bounds()
            windows = [
                WindowStats(index=i, start_ms=start + i * self.window_ms,
                            end_ms=min(start + (i + 1) * self.window_ms, end))
                for i in range(self._window_count)
            ]
            self._windows[group] = windows
        return windows

    def _require_bounds(self) -> tuple:
        if self._bounds is None:
            raise ReproError("call start_run() before recording telemetry")
        return self._bounds

    def _window_index(self, t_ms: float) -> Optional[int]:
        start, end = self._bounds
        if not start <= t_ms < end:
            return None
        return min(int((t_ms - start) / self.window_ms),
                   self._window_count - 1)

    def begin(self, group: str, now_ms: float) -> _Attempt:
        attempt = _Attempt(group, now_ms)
        self._open[attempt] = None
        return attempt

    def complete(self, attempt: _Attempt, result) -> None:
        self._require_bounds()
        attempt.end_ms = result.end_ms
        attempt.committed = bool(result.committed)
        attempt.internal = bool(result.internal_abort)
        self._open.pop(attempt, None)
        self._bucket(attempt)

    def offer(self, group: str, now_ms: float) -> None:
        """Count one offered arrival (open-loop runs call this per arrival)."""
        self._require_bounds()
        index = self._window_index(now_ms)
        if index is not None:
            self._group_windows(group)[index].offered += 1

    def observe_queue_depth(self, group: str, now_ms: float,
                            depth: int) -> None:
        """Record a sampled backlog depth (per window, the peak is kept)."""
        self._require_bounds()
        index = self._window_index(now_ms)
        if index is not None:
            window = self._group_windows(group)[index]
            if depth > window.queue_depth:
                window.queue_depth = depth

    # -- streaming aggregation --------------------------------------------------
    def _bucket(self, attempt: _Attempt) -> None:
        """Count a completed attempt (those in flight are ``build``'s job)."""
        start, end = self._bounds
        windows = self._group_windows(attempt.group)
        # Outcome counters land in the window where the transaction finished.
        # A completion *exactly on* a window boundary belongs to the window
        # that ends there: it measures the interval that just closed.  (The
        # naive half-open bucketing would put it in the next window — and,
        # combined with the stall rule below, count one attempt in two
        # windows.  Arrivals and queue samples keep pure half-open
        # semantics: they are instants, not interval ends.)
        if start <= attempt.end_ms < end:
            offset = attempt.end_ms - start
            index = int(offset / self.window_ms)
            if index > 0 and offset == index * self.window_ms:
                index -= 1
            index = min(index, len(windows) - 1)
            window = windows[index]
            if attempt.committed:
                window.committed += 1
                key = (attempt.group, index)
                digest = self._digests.get(key)
                if digest is None:
                    digest = self._digests[key] = _new_digest()
                digest.add(attempt.end_ms - attempt.start_ms)
            elif attempt.internal:
                window.internal_aborts += 1
            else:
                window.external_aborts += 1
        # Stalls: windows the attempt spans end-to-end without ever reaching
        # a commit.  A slow transaction that eventually commits is latency,
        # not a stall; a client wedged behind an RPC into a partition (which
        # later times out and aborts, or never finishes at all) is.
        if attempt.committed:
            return
        # Completed without committing: the window where the abort was
        # *counted* must not also be stalled by it, so only windows the
        # attempt strictly outlived stall (boundary-exact ends excluded).
        for window in windows:
            if (attempt.start_ms <= window.start_ms
                    and attempt.end_ms > window.end_ms):
                window.stalled += 1

    # -- aggregation ------------------------------------------------------------
    def build(self) -> Dict[str, GroupTimeline]:
        """Snapshot everything recorded so far into per-group timelines.

        Non-destructive (windows are copied), so it can be called again
        after further recording; attempts still in flight contribute their
        stall windows to the snapshot without being finalized.
        """
        start, end = self._require_bounds()
        timelines: Dict[str, GroupTimeline] = {}
        for group, windows in self._windows.items():
            copies = [replace(window) for window in windows]
            for (digest_group, index), digest in self._digests.items():
                if digest_group == group:
                    copies[index].latency = _summary_from_digest(digest)
            timelines[group] = GroupTimeline(group=group, windows=copies)
        # In-flight attempts stall every window they have fully covered.
        for attempt in self._open:
            timeline = timelines.get(attempt.group)
            if timeline is None:
                timeline = timelines[attempt.group] = GroupTimeline(
                    group=attempt.group,
                    windows=[replace(w) for w
                             in self._group_windows(attempt.group)])
            for window in timeline.windows:
                if attempt.start_ms <= window.start_ms and window.end_ms <= end:
                    window.stalled += 1
        return timelines
