"""Unified metrics registry: deterministic sim-clock observability.

One :class:`MetricsRegistry` per deployment (attached to the network when
``Scenario.metrics`` is on) collects three primitive kinds:

* **counters** — monotonically increasing floats keyed by name + labels
  (queue sheds, breaker opens, anti-entropy rounds, ...),
* **gauges** — last-written values (queue depth high-water, backlog), and
* **windowed histograms** — every observation lands in the t-digest for
  the window ``int(at_ms // window_ms)`` of its series *and* in a
  whole-run digest, so both per-window quantile time-series and run-level
  CDFs come out of the same feed.  Windows tile the absolute simulated
  clock half-open (``[i*w, (i+1)*w)``), so an observation on a boundary
  belongs to exactly one window by construction.

The registry reads the deployment's :class:`~repro.obs.trace.FaultLedger`
(the one the tracer uses, fed by the nemesis and the membership
coordinator), which is what lets the windowed export be *joined* with
chaos phases: every exported window carries the ids of the fault windows
it overlapped.

Handles: ``histogram(name, **labels)`` / ``counter`` / ``gauge`` canonicalise
``(name, labels)`` once and return the series itself — the one storage, whose
``observe(at_ms, x)`` / ``inc(n)`` / ``set(x)`` / ``max(x)`` is the one
recording routine; the by-name ``observe`` resolves a handle and delegates.
A series enters the queries and exports when first *touched*, not when
resolved.

Collected scalars: a count a component already keeps (a ``*Stats`` field, a
breaker's ``opens``) is not recorded a second time.  The component registers
a zero-argument reader when it is built (``collect_counter(name, read,
**labels)`` / ``collect_gauge``) and only the ``counters`` / ``gauges``
snapshots call it, so the scalar costs nothing per event and appears in every
query and export while it is non-zero.  Readers registered under one series
add up (counters) or keep the maximum (gauges), as merged series do.

Like tracing, nothing here schedules events or consumes randomness, so a
metrics-on run executes the metrics-off event sequence (pinned by
``TestGoldenKernelRun``).

Determinism: registries are keyed and iterated in sorted order, ids are
registry-local, and the t-digest is the deterministic mergeable sketch
from :mod:`repro.loadgen.sketch` — two runs of the same seeded scenario
produce byte-identical exports, including across ``--jobs`` pools.

Prometheus exposition: :meth:`MetricsRegistry.prometheus` renders the
standard text format — ``# TYPE`` headers, one sample per line, labels
sorted, counters as ``counter``, gauges as ``gauge``, and each histogram
series as a ``summary`` (``{quantile="0.5"}`` / ``{quantile="0.99"}``
sample lines plus ``_sum`` and ``_count``).  Metric names are prefixed
``repro_`` and sanitized to ``[a-zA-Z0-9_]``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.staleness import StalenessProbe
from repro.obs.trace import FaultLedger, FaultWindow

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Canonical series identity: metric name + sorted (label, value) pairs.
LabelItems = Tuple[Tuple[str, str], ...]
SeriesKey = Tuple[str, LabelItems]

#: Quantiles every summary/export reports (p50/p90/p99 per the artifact).
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


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


class _Scalar:
    """A series holding one float; ``None`` until first touched."""

    __slots__ = ("value",)

    def __init__(self):
        self.value: Optional[float] = None


class Counter(_Scalar):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        value = self.value
        self.value = 0.0 + amount if value is None else value + amount


class Gauge(_Scalar):
    __slots__ = ()

    def set(self, value: float) -> None:
        self.value = float(value)

    def max(self, value: float) -> None:
        """Keep the high-water mark (deterministic under any merge order)."""
        current = self.value
        if current is None or value > current:
            self.value = float(value)


class Histogram:
    """One windowed histogram series, resolved.

    ``observe`` keeps the digest of the window it last wrote bound, and
    looks a window up again only when ``int(at_ms // window_ms)`` changes
    (in either direction: t-visibility is bucketed by *commit* time).
    """

    __slots__ = ("windows", "total", "_window_ms", "_tile", "_add_window",
                 "_add_total")

    def __init__(self, window_ms: float):
        self.windows: Dict[int, object] = {}  # window index -> its digest
        self.total = _new_digest()
        self._window_ms = window_ms
        self._tile: Optional[float] = None  # at_ms // window_ms, last written
        self._add_window: Optional[Callable[[float], None]] = None
        self._add_total = self.total.add

    def window(self, index: int):
        digest = self.windows.get(index)
        if digest is None:
            digest = self.windows[index] = _new_digest()
        return digest

    def observe(self, at_ms: float, value: float) -> None:
        """Add ``value`` to the series at sim-time ``at_ms``."""
        tile = at_ms // self._window_ms
        if tile != self._tile:
            self._tile = tile
            self._add_window = self.window(int(tile)).add
        self._add_window(value)
        self._add_total(value)


class MetricsRegistry:
    """Counters, gauges, and windowed t-digest histograms for one run."""

    def __init__(self, window_ms: float = 500.0,
                 faults: Optional[FaultLedger] = None):
        if window_ms <= 0.0:
            raise ReproError(f"window_ms must be > 0, got {window_ms!r}")
        self.window_ms = float(window_ms)
        #: Series key -> its handle (touched: a value, or a window).
        self._counters: Dict[SeriesKey, Counter] = {}
        self._gauges: Dict[SeriesKey, Gauge] = {}
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

    def counter(self, name: str, /, **labels) -> Counter:
        """The handle of one series; hot seams resolve theirs once."""
        return self._series(self._counters, (name, self._items(labels)),
                            Counter)

    def gauge(self, name: str, /, **labels) -> Gauge:
        return self._series(self._gauges, (name, self._items(labels)), Gauge)

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
    def _snapshot(recorded: Dict, collected: Dict,
                  fold: Callable) -> Dict[SeriesKey, float]:
        values = {key: series.value for key, series in recorded.items()
                  if series.value is not None}
        for key, readers in collected.items():
            value = float(fold(read() for read in readers))
            if value:  # exported while non-zero: "once touched", read back
                values[key] = (fold((values[key], value)) if key in values
                               else value)
        return values

    @property
    def counters(self) -> Dict[SeriesKey, float]:
        """A snapshot of every touched or non-zero collected counter."""
        return self._snapshot(self._counters, self._counter_readers, sum)

    @property
    def gauges(self) -> Dict[SeriesKey, float]:
        return self._snapshot(self._gauges, self._gauge_readers, max)

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

    # -- merge (property-tested: merge-of-parts == whole) --------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one.

        Counters add; gauges keep the maximum (the only merge that is
        associative, commutative, and idempotent for high-water marks) —
        both read from ``other``'s snapshots, so its collected scalars come
        along at their current value; histogram windows and totals merge
        digest-wise.  Fault windows are not merged — they describe one
        deployment's timeline, and the benches never split a single run
        across registries.
        """
        if other.window_ms != self.window_ms:
            raise ReproError(
                f"cannot merge registries with different windows "
                f"({self.window_ms} vs {other.window_ms})")
        for key, value in other.counters.items():
            self._series(self._counters, key, Counter).inc(value)
        for key, value in other.gauges.items():
            self._series(self._gauges, key, Gauge).max(value)
        for key, theirs in other._histograms.items():
            mine = self._series(self._histograms, key, self._new_histogram)
            for index, digest in theirs.windows.items():
                mine.window(index).merge(digest)
            mine.total.merge(theirs.total)

    # -- queries -------------------------------------------------------------
    def counter_value(self, name: str, /, **labels) -> float:
        return self.counters.get((name, _label_items(labels)), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across every label combination."""
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def histogram_names(self) -> List[str]:
        return sorted({name for (name, _), series in self._histograms.items()
                       if series.windows})

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

    def window_indices(self, name: str, /, **labels) -> List[int]:
        series = self._observed(name, labels)
        return [] if series is None else sorted(series.windows)

    def indices_in_range(self, start_ms: float, end_ms: float) -> List[int]:
        """Window indices whose midpoint falls in ``[start_ms, end_ms)``."""
        w = self.window_ms
        indices = []
        index = int(start_ms // w)
        while index * w < end_ms:
            midpoint = (index + 0.5) * w
            if start_ms <= midpoint < end_ms:
                indices.append(index)
            index += 1
        return indices

    # -- exports -------------------------------------------------------------
    def timeseries(self,
                   quantiles: Sequence[float] = DEFAULT_QUANTILES) -> Dict:
        """Windowed time-series JSON, joined with the fault-window ledger.

        Each histogram series becomes ``{"name", "labels", "windows"}`` with
        one entry per *observed* window (count, mean, min, max, quantiles);
        :func:`repro.chaos.telemetry.join_fault_windows` then stamps every
        window with the ids of the fault windows it overlapped.
        """
        from repro.chaos.telemetry import join_fault_windows

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
            series.append({
                "name": name,
                "labels": dict(items),
                "windows": windows,
            })
        return {
            "window_ms": self.window_ms,
            "series": series,
            "fault_windows": fault_dicts,
        }

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
