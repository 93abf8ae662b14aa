"""A mergeable streaming quantile sketch (t-digest style).

Closed-loop experiments could afford to keep every latency sample in a
Python list; an open-loop run at production arrival rates cannot — a
million-request ramp would hold a million floats per window series.  This
digest keeps a *bounded* set of weighted centroids (Dunning's merging
t-digest with the arcsine scale function), so memory is O(compression)
regardless of how many samples stream through, while the quantile estimate
stays tight exactly where latency reporting needs it: at the tails (the
scale function shrinks centroids near q=0 and q=1, so p99/p999 are far more
accurate than a uniform histogram of the same size).

Two properties the benchmark layer depends on, both pinned by tests:

* **Determinism** — the digest draws no randomness; the same sample
  sequence always produces the same centroids, so seeded simulations stay
  bit-identical (including across the ``--jobs`` parallel merge, where each
  run builds its digest inside one worker and merges happen in input
  order).
* **Mergeability** — ``merge`` folds another digest in as weighted points;
  a merge of per-window (or per-worker) parts equals the digest of the
  whole stream to within the rank-error bound, which is what lets
  per-window series roll up into run-level summaries without re-reading
  samples.
"""

from __future__ import annotations

from itertools import repeat
from math import asin, pi
from operator import itemgetter
from typing import Iterable, List, Optional, Tuple

__all__ = ["LatencyDigest"]

#: Default compression: ~2x this many centroids retained at steady state.
DEFAULT_COMPRESSION = 100


class LatencyDigest:
    """Streaming quantile sketch over latency samples (milliseconds).

    ``add`` only buffers; ``merge`` folds in another digest; ``quantile``
    interpolates between centroid means.  ``count``/``mean``/``minimum``/
    ``maximum`` are exact (tracked outside the sketch, folded from the buffer
    **in arrival order** when it fills — ``4 * compression`` samples, then it
    is compressed and dropped — or when one is read: float for float what
    per-sample bookkeeping gives); only interior quantiles are approximate.
    """

    def __init__(self, compression: int = DEFAULT_COMPRESSION):
        if compression < 10:
            raise ValueError(f"compression too small: {compression!r}")
        self.compression = int(compression)
        #: Compressed centroids: parallel (mean, weight) lists sorted by mean.
        self._means: List[float] = []
        self._weights: List[float] = []
        #: Uncompressed recent samples, folded in at the next compress.
        self._buffer: List[float] = []
        self._buffer_cap = 4 * self.compression
        #: The statistics below cover all but ``_buffer[_folded:]``.
        self._folded = 0
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # -- ingestion ---------------------------------------------------------
    def add(self, value: float) -> None:
        """Fold one sample into the sketch."""
        buffer = self._buffer
        buffer.append(float(value))
        if len(buffer) >= self._buffer_cap:
            self._compress()

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def _fold(self) -> None:
        """Bring the exact statistics up to date with the buffer (the sum
        sample by sample: ``sum`` rounds differently across Pythons)."""
        fresh = self._buffer[self._folded:] if self._folded else self._buffer
        if not fresh:
            return
        self._folded += len(fresh)
        self._count += len(fresh)
        total = self._sum
        for value in fresh:
            total += value
        self._sum = total
        low, high = min(fresh), max(fresh)
        if self._min is None or low < self._min:
            self._min = low
        if self._max is None or high > self._max:
            self._max = high

    def merge(self, other: "LatencyDigest") -> "LatencyDigest":
        """Fold ``other``'s mass into this digest (rank error stays bounded)."""
        self._fold()
        other._fold()
        if other._count == 0:
            return self
        self._count += other._count
        self._sum += other._sum
        if self._min is None or other._min < self._min:
            self._min = other._min
        if self._max is None or other._max > self._max:
            self._max = other._max
        self._merge_points(self._points() + other._points())
        return self

    def _compress(self) -> None:
        self._fold()
        self._merge_points(self._points())

    def _points(self) -> List[Tuple[float, float]]:
        """Centroids, then buffered samples at weight one: (mean, weight)."""
        return [*zip(self._means, self._weights),
                *zip(self._buffer, repeat(1.0))]

    def _merge_points(self, points: List[Tuple[float, float]]) -> None:
        """One merging pass replacing our centroids and buffer by ``points``:
        sort by mean (stable: equal means keep their order), greedily fuse
        within Dunning's k1 scale limit — fine near the tails, coarse in the
        middle.  The total weight is the (already updated) sample count.
        """
        self._buffer = []
        self._folded = 0
        points.sort(key=itemgetter(0))
        total = float(self._count)
        compression = float(self.compression)
        self._means = means = []
        self._weights = weights = []
        remaining = iter(points)
        mean, cur_weight = next(remaining)
        cur_sum = mean * cur_weight
        done = 0.0  # weight already sealed into emitted centroids
        k_floor = compression * (asin(-1.0) / pi + 0.5)
        for mean, weight in remaining:
            q_new = (done + cur_weight + weight) / total
            if compression * (asin(2.0 * q_new - 1.0) / pi + 0.5) - k_floor <= 1.0:
                cur_sum += mean * weight
                cur_weight += weight
            else:
                means.append(cur_sum / cur_weight)
                weights.append(cur_weight)
                done += cur_weight
                k_floor = compression * (
                    asin(2.0 * (done / total) - 1.0) / pi + 0.5)
                cur_sum = mean * weight
                cur_weight = weight
        means.append(cur_sum / cur_weight)
        weights.append(cur_weight)

    # -- statistics --------------------------------------------------------
    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def mean(self) -> Optional[float]:
        count = self.count
        return self._sum / count if count else None

    @property
    def minimum(self) -> Optional[float]:
        self._fold()
        return self._min

    @property
    def maximum(self) -> Optional[float]:
        self._fold()
        return self._max

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (q in [0, 1]); None when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q!r}")
        if self.count == 0:
            return None
        if self._buffer:
            self._compress()
        means, weights = self._means, self._weights
        if len(means) == 1:
            return means[0]
        target = q * self._count
        # Centroid i covers ranks centred on cum(i) - weight/2; interpolate
        # between adjacent centres, clamping to the exact extremes.
        cum = 0.0
        prev_centre = 0.0
        prev_mean = self._min
        for mean, weight in zip(means, weights):
            centre = cum + weight / 2.0
            if target < centre:
                span = centre - prev_centre
                frac = (target - prev_centre) / span if span > 0 else 0.0
                return prev_mean + (mean - prev_mean) * frac
            cum += weight
            prev_centre = centre
            prev_mean = mean
        return self._max

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"LatencyDigest(count={self.count}, "
                f"centroids={len(self._means)}, buffered={len(self._buffer)})")
