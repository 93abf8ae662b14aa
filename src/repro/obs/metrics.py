"""Unified metrics registry: deterministic sim-clock observability.

One :class:`MetricsRegistry` per deployment (attached to the network when
``Scenario.metrics`` is on) collects three primitive kinds:

* **counters** — monotonically increasing floats keyed by name + labels
  (queue sheds by reason, breaker opens, anti-entropy rounds, ...),
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

Zero-overhead contract: like tracing, nothing here schedules simulator
events or consumes randomness — all bookkeeping is inline arithmetic on
plain dicts — and every instrumentation site guards on
``metrics is not None``, so a metrics-off run executes the exact same
event sequence (pinned by ``TestGoldenKernelRun`` in
``tests/bench/test_golden_artifacts.py``, which runs the canonical causal
config with metrics on and requires the metrics-off event count).

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

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.staleness import StalenessProbe
from repro.obs.trace import FaultLedger, FaultWindow

__all__ = ["MetricsRegistry"]

#: Canonical series identity: metric name + sorted (label, value) pairs.
LabelItems = Tuple[Tuple[str, str], ...]
SeriesKey = Tuple[str, LabelItems]

#: Quantiles every summary/export reports (p50/p90/p99 per the artifact).
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _new_digest():
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


class MetricsRegistry:
    """Counters, gauges, and windowed t-digest histograms for one run."""

    def __init__(self, window_ms: float = 500.0,
                 faults: Optional[FaultLedger] = None):
        if window_ms <= 0.0:
            raise ReproError(f"window_ms must be > 0, got {window_ms!r}")
        self.window_ms = float(window_ms)
        self.counters: Dict[SeriesKey, float] = {}
        self.gauges: Dict[SeriesKey, float] = {}
        self._windows: Dict[SeriesKey, Dict[int, object]] = {}
        self._totals: Dict[SeriesKey, object] = {}
        #: The deployment's ledger (a private one for a bare registry).
        self.faults = faults if faults is not None else FaultLedger()
        #: The recency probe rides on the registry so every instrumentation
        #: site reaches both through the one ``network.metrics`` attribute.
        self.staleness = StalenessProbe(self)
        #: ``tuple(labels.items())`` -> canonical items, so the recording
        #: primitives do not re-stringify and re-sort labels on every call.
        self._label_memo: Dict[tuple, LabelItems] = {}

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

    # -- primitives ----------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0, **labels) -> None:
        key = (name, self._items(labels))
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self.gauges[(name, self._items(labels))] = float(value)

    def max_gauge(self, name: str, value: float, **labels) -> None:
        """Keep the high-water mark (deterministic under any merge order)."""
        key = (name, self._items(labels))
        current = self.gauges.get(key)
        if current is None or value > current:
            self.gauges[key] = float(value)

    def observe(self, name: str, at_ms: float, value: float,
                **labels) -> None:
        """Add ``value`` to the histogram series at sim-time ``at_ms``."""
        key = (name, self._items(labels))
        index = int(at_ms // self.window_ms)
        per_window = self._windows.setdefault(key, {})
        digest = per_window.get(index)
        if digest is None:
            digest = per_window[index] = _new_digest()
        digest.add(value)
        total = self._totals.get(key)
        if total is None:
            total = self._totals[key] = _new_digest()
        total.add(value)

    # -- fault windows -------------------------------------------------------
    @property
    def fault_windows(self) -> List[FaultWindow]:
        return self.faults.windows

    def on_fault(self, kind: str, targets: Sequence[str], at_ms: float,
                 description: str = "") -> None:
        """Feed the ledger (see :meth:`FaultLedger.on_fault`)."""
        self.faults.on_fault(kind, targets, at_ms, description)

    def finalize(self, now_ms: float) -> None:
        """Close any still-open fault windows at end of run."""
        self.faults.close_all(now_ms)

    # -- merge (property-tested: merge-of-parts == whole) --------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one.

        Counters add; gauges keep the maximum (the only merge that is
        associative, commutative, and idempotent for high-water marks);
        histogram windows and totals merge digest-wise.  Fault windows are
        not merged — they describe one deployment's timeline, and the
        benches never split a single run across registries.
        """
        if other.window_ms != self.window_ms:
            raise ReproError(
                f"cannot merge registries with different windows "
                f"({self.window_ms} vs {other.window_ms})")
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + value
        for (name, items), value in other.gauges.items():
            self.max_gauge(name, value, **dict(items))
        for key, per_window in other._windows.items():
            mine = self._windows.setdefault(key, {})
            for index, digest in per_window.items():
                existing = mine.get(index)
                if existing is None:
                    existing = mine[index] = _new_digest()
                existing.merge(digest)
        for key, total in other._totals.items():
            existing = self._totals.get(key)
            if existing is None:
                existing = self._totals[key] = _new_digest()
            existing.merge(total)

    # -- queries -------------------------------------------------------------
    def counter_value(self, name: str, **labels) -> float:
        return self.counters.get((name, _label_items(labels)), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across every label combination."""
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def histogram_names(self) -> List[str]:
        return sorted({name for name, _ in self._windows})

    def quantile(self, name: str, q: float, **labels) -> Optional[float]:
        total = self._totals.get((name, _label_items(labels)))
        if total is None:
            return None
        return total.quantile(q)

    def summary(self, name: str,
                quantiles: Sequence[float] = DEFAULT_QUANTILES,
                **labels) -> Optional[Dict[str, float]]:
        """Run-level stats for one histogram series (None if unobserved)."""
        total = self._totals.get((name, _label_items(labels)))
        if total is None or total.count == 0:
            return None
        stats = {
            "count": total.count,
            "mean": total.mean,
            "min": total.minimum,
            "max": total.maximum,
        }
        for q in quantiles:
            stats[f"p{int(round(q * 100))}"] = total.quantile(q)
        return stats

    def merged_quantiles(self, name: str, window_indices: Sequence[int],
                         quantiles: Sequence[float] = DEFAULT_QUANTILES,
                         **labels) -> Optional[Dict[str, float]]:
        """Stats over a subset of windows (e.g. one chaos phase).

        Merges the per-window digests for ``window_indices`` into a scratch
        digest; returns None when none of those windows saw an observation.
        """
        per_window = self._windows.get((name, _label_items(labels)))
        if not per_window:
            return None
        scratch = _new_digest()
        for index in window_indices:
            digest = per_window.get(index)
            if digest is not None:
                scratch.merge(digest)
        if scratch.count == 0:
            return None
        stats = {
            "count": scratch.count,
            "mean": scratch.mean,
            "min": scratch.minimum,
            "max": scratch.maximum,
        }
        for q in quantiles:
            stats[f"p{int(round(q * 100))}"] = scratch.quantile(q)
        return stats

    def window_indices(self, name: str, **labels) -> List[int]:
        per_window = self._windows.get((name, _label_items(labels)))
        if not per_window:
            return []
        return sorted(per_window)

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
        for key in sorted(self._windows):
            name, items = key
            windows = []
            per_window = self._windows[key]
            for index in sorted(per_window):
                digest = per_window[index]
                entry = {
                    "index": index,
                    "start_ms": index * self.window_ms,
                    "end_ms": (index + 1) * self.window_ms,
                    "count": digest.count,
                    "mean": digest.mean,
                    "min": digest.minimum,
                    "max": digest.maximum,
                }
                for q in quantiles:
                    entry[f"p{int(round(q * 100))}"] = digest.quantile(q)
                windows.append(entry)
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
        for metric in sorted({name for name, _ in self.counters}):
            lines.append(f"# TYPE {_prom_name(metric)} counter")
            for (name, items), value in sorted(self.counters.items()):
                if name != metric:
                    continue
                lines.append(f"{_prom_name(name)}{_prom_labels(items)} "
                             f"{_prom_value(value)}")
        for metric in sorted({name for name, _ in self.gauges}):
            lines.append(f"# TYPE {_prom_name(metric)} gauge")
            for (name, items), value in sorted(self.gauges.items()):
                if name != metric:
                    continue
                lines.append(f"{_prom_name(name)}{_prom_labels(items)} "
                             f"{_prom_value(value)}")
        for metric in sorted({name for name, _ in self._totals}):
            lines.append(f"# TYPE {_prom_name(metric)} summary")
            for (name, items), total in sorted(self._totals.items()):
                if name != metric or total.count == 0:
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
