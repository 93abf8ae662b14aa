"""A mergeable log-linear latency histogram (HdrHistogram's bucket layout).

``frexp`` gives a value's octave, split into ``SUB_BUCKETS`` linear buckets
under 1/128 of their lower edge wide (each integer below 256 is a lower edge
of its own); zero has its own bucket, and a negative or NaN value raises.
Count, min, max and the arrival-order sum are exact; ``quantile`` is the
lower edge of the nearest-rank sample's bucket, clamped to ``[min, max]``
(the top rank is the exact max).  ``merge`` adds bucket counts: any split of
a stream merges to the whole stream's buckets.
"""

from __future__ import annotations

from math import ceil, frexp, inf, ldexp
from typing import Dict, Iterable, Optional

__all__ = ["LatencyDigest"]

#: Linear buckets per octave (a power of two).  An octave's indices are
#: ``STRIDE`` apart, and frexp's mantissa in [0.5, 1) takes their top half.
SUB_BUCKETS = 128
STRIDE = 2 * SUB_BUCKETS


class LatencyDigest:
    """Bucket counts (index -> samples), and exact sum, min and max."""

    __slots__ = ("buckets", "_sum", "_min", "_max")

    def __init__(self):
        self.buckets: Dict[int, int] = {}
        self._sum, self._min, self._max = 0.0, inf, -inf

    def add(self, value: float) -> None:
        value = float(value)
        if not value >= 0.0:
            raise ValueError(f"not a latency: {value!r}")
        mantissa, octave = frexp(value)  # zero's is (0.0, 0): index 0
        index = octave * STRIDE + int(mantissa * STRIDE)
        buckets = self.buckets
        buckets[index] = buckets.get(index, 0) + 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "LatencyDigest") -> "LatencyDigest":
        for index, samples in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + samples
        self._sum += other._sum
        self._min, self._max = min(self._min, other._min), max(self._max, other._max)
        return self

    count = property(lambda self: sum(self.buckets.values()))
    mean = property(lambda self: self._sum / self.count if self.buckets else None)
    minimum = property(lambda self: self._min if self.buckets else None)
    maximum = property(lambda self: self._max if self.buckets else None)

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile (q in [0, 1]) to within one bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q!r}")
        rank = max(1, ceil(q * self.count))
        if rank == self.count or not self.buckets:
            return self.maximum
        # Zero's bucket first (index 0 lies between the octaves below 0.5 and
        # the rest), then by index: octave, then slot.
        for index in sorted(sorted(self.buckets), key=bool):
            rank -= self.buckets[index]
            if rank <= 0:
                octave, slot = divmod(index, STRIDE)
                return min(max(ldexp(slot / STRIDE, octave), self._min), self._max)
