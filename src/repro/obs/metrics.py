"""Unified metrics registry: deterministic sim-clock observability.

One :class:`MetricsRegistry` per deployment (on the network when
``Scenario.metrics`` is on) exports **counters** (counts keyed by name +
labels), **gauges** (high-water marks a component keeps) and **windowed
histograms** (each observation lands in the t-digest of its window and in
a whole-run digest: per-window quantile series and run-level CDFs from one
feed).

The one tiling: every windowed series in the code — these histograms and
the availability timelines of :mod:`repro.chaos.telemetry` — puts instant
``t`` in window :func:`window_index` ``= int(t // w)``, the absolute
half-open tile ``[i*w, (i+1)*w)``: an instant on a boundary belongs to the
window that starts there, and to no other.  A series recording only a
measured interval reports the tiles it clips with their clipped span
(*edge windows*).  A window belongs to the phase containing its midpoint
(:func:`phase_tiles`, the one phase selector); :func:`join_fault_windows`
stamps exported windows with the deployment's fault windows they overlap.

Handles: ``histogram(name, **labels)`` canonicalises the series once and
returns it — the one storage, whose ``observe(at_ms, x)`` is the one
recording routine.  A series enters the exports when first *touched*, not
when resolved.  Every scalar is *collected*, not recorded:
``collect_counter(name, read, **labels)`` / ``collect_gauge`` register a
reader of a count kept anyway (a ``*Stats`` field, a histogram's run count)
that only the ``counters`` / ``gauges`` snapshots call: free per event,
exported while non-zero.  Readers of one series add up (counters) or keep
the maximum (gauges).

Nothing here schedules events or draws randomness, so a metrics-on run
executes the metrics-off event sequence (``TestGoldenKernelRun``), and
exports are byte-identical across runs of one seeded scenario.
:meth:`MetricsRegistry.prometheus` renders the Prometheus text format
(labels sorted, names ``repro_``-prefixed, histograms as ``summary``).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.staleness import StalenessProbe
from repro.obs.trace import FaultLedger, FaultWindow

__all__ = ["Histogram", "MetricsRegistry", "join_fault_windows",
           "phase_tiles", "window_index"]

#: Canonical series identity: metric name + sorted (label, value) pairs.
LabelItems = Tuple[Tuple[str, str], ...]
SeriesKey = Tuple[str, LabelItems]

#: Quantiles every summary/export reports (p50/p90/p99 per the artifact).
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def window_index(at_ms: float, window_ms: float) -> int:
    """The window of instant ``at_ms``: tile ``[i*w, (i+1)*w)`` holds it."""
    return int(at_ms // window_ms)


def phase_tiles(start_ms: float, end_ms: float, window_ms: float) -> range:
    """The windows of a phase ``[start_ms, end_ms)``: tiles whose midpoint
    the phase contains."""
    def first_from(at_ms: float) -> int:
        index = window_index(at_ms, window_ms)
        return index + ((index + 0.5) * window_ms < at_ms)

    return range(first_from(start_ms), first_from(end_ms))


def join_fault_windows(windows: List[Dict[str, object]],
                       fault_windows: Sequence[Dict[str, object]],
                       ) -> List[Dict[str, object]]:
    """Stamp each window dict (``start_ms`` / ``end_ms``: a histogram
    window, ``WindowStats.as_dict()``) with the ids of the fault windows
    (``FaultWindow.as_dict()``) it overlapped, under ``"faults"``.

    A still-open fault (``end_ms`` None) overlaps everything after its
    start; a zero-width marker (scale-out, scale-in) lands in the one
    window holding its instant.
    """
    def overlaps(entry, fault) -> bool:
        f_start, f_end = fault["start_ms"], fault["end_ms"]
        if f_end == f_start:
            return entry["start_ms"] <= f_start < entry["end_ms"]
        return (entry["start_ms"] < (math.inf if f_end is None else f_end)
                and entry["end_ms"] > f_start)

    for entry in windows:
        entry["faults"] = [fault["window_id"] for fault in fault_windows
                           if overlaps(entry, fault)]
    return windows


def _new_digest():
    # Function-level: importing ``repro.loadgen.sketch`` runs the package's
    # ``__init__``, whose engine imports ``hat.testbed``, which imports us.
    from repro.loadgen.sketch import LatencyDigest

    return LatencyDigest()


def _prom_name(name: str) -> str:
    sanitized = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"repro_{sanitized}"


def _prom_value(value: float) -> str:
    value = float(value)
    if value.is_integer():
        return str(int(value))
    return repr(value)


def _prom_labels(items: LabelItems) -> str:
    if not items:
        return ""
    parts = []
    for key, value in items:
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        escaped = escaped.replace("\n", "\\n")
        parts.append(f'{key}="{escaped}"')
    return "{" + ",".join(parts) + "}"


def _stats(digest, quantiles: Sequence[float]) -> Dict:
    stats = {"count": digest.count, "mean": digest.mean,
             "min": digest.minimum, "max": digest.maximum}
    for q in quantiles:
        stats[f"p{int(round(q * 100))}"] = digest.quantile(q)
    return stats


class Histogram:
    """One windowed histogram series, resolved: a t-digest per window
    index, created on first touch, and one over the whole run."""

    __slots__ = ("windows", "total", "_window_ms")

    def __init__(self, window_ms: float):
        self.windows: Dict[int, object] = {}  # window index -> its digest
        self.total = _new_digest()
        self._window_ms = window_ms

    def observe(self, at_ms: float, value: float) -> None:
        """Add ``value`` at sim-time ``at_ms``: ``window_index`` and
        ``LatencyDigest.add`` (window and run digests) in one frame."""
        index = int(at_ms // self._window_ms)
        digest = self.windows.get(index)
        if digest is None:
            digest = self.windows[index] = _new_digest()
        value = float(value)
        buffer = digest._buffer
        buffer.append(value)
        if len(buffer) >= digest._buffer_cap:
            digest._compress()
        digest = self.total
        buffer = digest._buffer
        buffer.append(value)
        if len(buffer) >= digest._buffer_cap:
            digest._compress()


class MetricsRegistry:
    """Collected counters and gauges, and windowed t-digest histograms."""

    def __init__(self, window_ms: float = 500.0,
                 faults: Optional[FaultLedger] = None):
        if window_ms <= 0.0:
            raise ReproError(f"window_ms must be > 0, got {window_ms!r}")
        self.window_ms = float(window_ms)
        #: Series key -> its handle (touched: a window).
        self._histograms: Dict[SeriesKey, Histogram] = {}
        #: Series key -> the readers of a collected scalar (module docstring).
        self._counter_readers: Dict[SeriesKey, List[Callable[[], float]]] = {}
        self._gauge_readers: Dict[SeriesKey, List[Callable[[], float]]] = {}
        self._new_histogram = partial(Histogram, self.window_ms)
        #: The deployment's ledger (a private one for a bare registry).
        self.faults = faults if faults is not None else FaultLedger()
        #: ``tuple(labels.items())`` -> canonical items, so resolving a
        #: series does not re-stringify and re-sort labels on every call.
        self._label_memo: Dict[tuple, LabelItems] = {}
        #: The recency probe rides on the registry so every instrumentation
        #: site reaches both through the one ``network.metrics`` attribute.
        self.staleness = StalenessProbe(self)

    def _items(self, labels: Dict[str, object]) -> LabelItems:
        token = tuple(labels.items())
        items = self._label_memo.get(token)
        if items is None:
            items = _label_items(labels)
            # Only all-string labels are memoised: 1, 1.0 and True hash and
            # compare equal but stringify differently.
            if all(type(value) is str for value in labels.values()):
                self._label_memo[token] = items
        return items

    # -- series handles ------------------------------------------------------
    @staticmethod
    def _series(table: Dict, key: SeriesKey, new: Callable):
        series = table.get(key)
        if series is None:
            series = table[key] = new()
        return series

    def histogram(self, name: str, /, **labels) -> Histogram:
        return self._series(self._histograms, (name, self._items(labels)),
                            self._new_histogram)

    # -- collected scalars: read at export, never recorded --------------------
    def collect_counter(self, name: str, read: Callable[[], float], /,
                        **labels) -> None:
        """Export ``read()`` — a count its component keeps — as a counter."""
        self._counter_readers.setdefault(
            (name, self._items(labels)), []).append(read)

    def collect_gauge(self, name: str, read: Callable[[], float], /,
                      **labels) -> None:
        self._gauge_readers.setdefault(
            (name, self._items(labels)), []).append(read)

    # -- by-name convenience: resolve, then delegate ----------------------
    def observe(self, name: str, at_ms: float, value: float, /,
                **labels) -> None:
        self._series(self._histograms, (name, self._items(labels)),
                     self._new_histogram).observe(at_ms, value)

    @staticmethod
    def _collected(readers: Dict, fold: Callable) -> Dict[SeriesKey, float]:
        """The collected series read back, each while it is non-zero."""
        values = {key: float(fold(read() for read in reads))
                  for key, reads in readers.items()}
        return {key: value for key, value in values.items() if value}

    @property
    def counters(self) -> Dict[SeriesKey, float]:
        """A snapshot of every non-zero collected counter."""
        return self._collected(self._counter_readers, sum)

    @property
    def gauges(self) -> Dict[SeriesKey, float]:
        return self._collected(self._gauge_readers, max)

    def _observed(self, name: str, labels: Dict) -> Optional[Histogram]:
        series = self._histograms.get((name, _label_items(labels)))
        return series if series is not None and series.windows else None

    # -- fault windows -------------------------------------------------------
    @property
    def fault_windows(self) -> List[FaultWindow]:
        return self.faults.windows

    def finalize(self, now_ms: float) -> None:
        """Close any still-open fault windows at end of run."""
        self.faults.close_all(now_ms)

    # -- queries -------------------------------------------------------------

    def counter_total(self, name: str) -> float:
        """Sum of a counter across every label combination."""
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def quantile(self, name: str, q: float, /, **labels) -> Optional[float]:
        series = self._observed(name, labels)
        return None if series is None else series.total.quantile(q)

    def summary(self, name: str, /,
                quantiles: Sequence[float] = DEFAULT_QUANTILES,
                **labels) -> Optional[Dict[str, float]]:
        """Run-level stats for one histogram series (None if unobserved)."""
        series = self._observed(name, labels)
        return None if series is None else _stats(series.total, quantiles)

    def merged_quantiles(self, name: str, window_indices: Sequence[int], /,
                         quantiles: Sequence[float] = DEFAULT_QUANTILES,
                         **labels) -> Optional[Dict[str, float]]:
        """Stats over a subset of windows (e.g. one chaos phase).

        Merges the per-window digests for ``window_indices`` into a scratch
        digest; returns None when none of those windows saw an observation.
        """
        series = self._observed(name, labels)
        scratch = _new_digest()
        for index in window_indices if series is not None else ():
            digest = series.windows.get(index)
            if digest is not None:
                scratch.merge(digest)
        return _stats(scratch, quantiles) if scratch.count else None

    # -- exports -------------------------------------------------------------
    def timeseries(self,
                   quantiles: Sequence[float] = DEFAULT_QUANTILES) -> Dict:
        """Windowed time-series JSON, joined with the fault-window ledger.

        Each histogram series becomes ``{"name", "labels", "windows"}`` with
        one entry per *observed* window (count, mean, min, max, quantiles);
        :func:`join_fault_windows` then stamps every window with the ids of
        the fault windows it overlapped.
        """
        fault_dicts = [w.as_dict() for w in self.fault_windows]
        series = []
        for (name, items), histogram in sorted(self._histograms.items()):
            if not histogram.windows:
                continue
            windows = [{"index": index,
                        "start_ms": index * self.window_ms,
                        "end_ms": (index + 1) * self.window_ms,
                        **_stats(digest, quantiles)}
                       for index, digest in sorted(histogram.windows.items())]
            join_fault_windows(windows, fault_dicts)
            series.append({"name": name, "labels": dict(items),
                           "windows": windows})
        return {"window_ms": self.window_ms, "series": series,
                "fault_windows": fault_dicts}

    def prometheus(self,
                   quantiles: Sequence[float] = DEFAULT_QUANTILES) -> str:
        """Prometheus text-exposition snapshot (sorted, deterministic)."""
        lines: List[str] = []
        for kind, scalars in (("counter", self.counters),
                              ("gauge", self.gauges)):
            for metric in sorted({name for name, _ in scalars}):
                lines.append(f"# TYPE {_prom_name(metric)} {kind}")
                for (name, items), value in sorted(scalars.items()):
                    if name != metric:
                        continue
                    lines.append(f"{_prom_name(name)}{_prom_labels(items)} "
                                 f"{_prom_value(value)}")
        totals = sorted((key, series.total)
                        for key, series in self._histograms.items()
                        if series.windows)
        for metric in sorted({name for (name, _), _ in totals}):
            lines.append(f"# TYPE {_prom_name(metric)} summary")
            for (name, items), total in totals:
                if name != metric:
                    continue
                base = _prom_name(name)
                for q in quantiles:
                    labelled = dict(items)
                    labelled["quantile"] = _prom_value(q)
                    sample = _prom_labels(_label_items(labelled))
                    lines.append(
                        f"{base}{sample} {_prom_value(total.quantile(q))}")
                lines.append(f"{base}_sum{_prom_labels(items)} "
                             f"{_prom_value(total.mean * total.count)}")
                lines.append(f"{base}_count{_prom_labels(items)} "
                             f"{total.count}")
        return "\n".join(lines) + ("\n" if lines else "")
