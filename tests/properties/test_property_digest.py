"""Property tests for the mergeable latency digest.

The digest replaces unbounded sample lists on the telemetry hot path, so
three things must hold no matter what data streams in: exact counters
(count/mean/min/max are not approximations), bounded memory (centroids
never grow past the compression budget), and mergeability — summarizing
parts and merging must agree with summarizing the whole, which is what
makes ``--jobs N`` roll-ups and cross-run aggregation sound.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.loadgen.sketch import LatencyDigest

SAMPLES = st.lists(
    st.floats(min_value=0.0, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=400)

QUANTILES = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999)


def _rank_error(samples, q, estimate):
    """Distance from q to the estimate's rank *interval* (ties span ranks)."""
    n = len(samples)
    lo = sum(1 for s in samples if s < estimate) / n
    hi = sum(1 for s in samples if s <= estimate) / n
    if lo <= q <= hi:
        return 0.0
    return min(abs(q - lo), abs(q - hi))


@given(samples=SAMPLES)
@settings(max_examples=60, deadline=None)
def test_exact_statistics(samples):
    digest = LatencyDigest()
    digest.extend(samples)
    assert digest.count == len(samples)
    assert digest.minimum == min(samples)
    assert digest.maximum == max(samples)
    assert digest.mean == pytest.approx(sum(samples) / len(samples))


@given(samples=SAMPLES)
@settings(max_examples=60, deadline=None)
def test_quantiles_within_range_and_rank_error(samples):
    digest = LatencyDigest()
    digest.extend(samples)
    # Interpolating between adjacent centroids can land the estimate
    # strictly between two samples, which for tiny n shifts its rank by
    # up to ~1/n; past that, 5% absolute rank error is a loose bound the
    # implementation beats comfortably.
    bound = max(0.05, 1.0 / len(samples))
    for q in QUANTILES:
        estimate = digest.quantile(q)
        assert min(samples) <= estimate <= max(samples)
        assert _rank_error(samples, q, estimate) <= bound


@given(samples=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                  allow_nan=False, allow_infinity=False),
                        min_size=2, max_size=400),
       cut=st.integers(min_value=1, max_value=399))
@settings(max_examples=60, deadline=None)
def test_merge_of_parts_matches_whole(samples, cut):
    """digest(parts merged) ~= digest(whole), and counters exactly equal."""
    cut = min(cut, len(samples) - 1)
    left, right = LatencyDigest(), LatencyDigest()
    left.extend(samples[:cut])
    right.extend(samples[cut:])
    left.merge(right)

    whole = LatencyDigest()
    whole.extend(samples)

    assert left.count == whole.count == len(samples)
    assert left.minimum == whole.minimum
    assert left.maximum == whole.maximum
    assert left.mean == pytest.approx(whole.mean)
    bound = max(0.05, 1.0 / len(samples))
    for q in QUANTILES:
        # Both views must be valid summaries of the same data: compare each
        # against ground truth by rank error rather than against each other.
        assert _rank_error(samples, q, left.quantile(q)) <= bound
        assert _rank_error(samples, q, whole.quantile(q)) <= bound


def test_centroid_memory_is_bounded():
    digest = LatencyDigest(compression=100)
    for i in range(100_000):
        digest.add(float(i % 9973))
    assert digest.count == 100_000
    # Buffer (4x compression) plus the compressed centroid list: far below
    # the 100k samples a list would hold.
    assert (len(digest._means) + len(digest._buffer)) <= 4 * 100 + 2 * 100
    assert digest.quantile(0.5) == pytest.approx(9973 / 2, rel=0.05)


def test_deterministic_no_randomness():
    a, b = LatencyDigest(), LatencyDigest()
    data = [float((i * 7919) % 1000) for i in range(5000)]
    a.extend(data)
    b.extend(data)
    assert a.quantile(0.5) == b.quantile(0.5)
    assert a.quantile(0.99) == b.quantile(0.99)
    assert (len(a._means) + len(a._buffer)) == (len(b._means) + len(b._buffer))


def test_empty_digest():
    digest = LatencyDigest()
    assert digest.count == 0
    assert digest.mean is None
    assert digest.minimum is None
    assert digest.maximum is None


# -- differential: deferred bookkeeping == the eager digest it replaced -------

class EagerDigest:
    """The digest as it was before ``add`` deferred its bookkeeping, verbatim:
    every sample updates count/sum/min/max on arrival, ``_merge_points`` calls
    ``_k_scale`` per point.  Kept as the reference the rewrite must match
    bit for bit."""

    def __init__(self, compression=100):
        self.compression = int(compression)
        self._means = []
        self._weights = []
        self._buffer = []
        self._buffer_cap = 4 * self.compression
        self.count = 0
        self._sum = 0.0
        self._min = None
        self._max = None

    @staticmethod
    def _k_scale(q, compression):
        return compression * (math.asin(2.0 * q - 1.0) / math.pi + 0.5)

    def add(self, value):
        value = float(value)
        self.count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        buffer = self._buffer
        buffer.append(value)
        if len(buffer) >= self._buffer_cap:
            self._compress()

    def merge(self, other):
        if other.count == 0:
            return self
        self.count += other.count
        self._sum += other._sum
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None or other._max > self._max):
            self._max = other._max
        pending = list(zip(self._means, self._weights))
        pending += [(m, 1.0) for m in self._buffer]
        pending += list(zip(other._means, other._weights))
        pending += [(m, 1.0) for m in other._buffer]
        self._buffer = []
        self._means, self._weights = self._merge_points(pending)
        return self

    def _compress(self):
        pending = list(zip(self._means, self._weights))
        pending += [(m, 1.0) for m in self._buffer]
        self._buffer = []
        self._means, self._weights = self._merge_points(pending)

    def _merge_points(self, points):
        if not points:
            return [], []
        points.sort(key=lambda p: p[0])
        total = sum(w for _m, w in points)
        compression = float(self.compression)
        means = []
        weights = []
        cur_sum = points[0][0] * points[0][1]
        cur_weight = points[0][1]
        done = 0.0
        k_floor = self._k_scale(0.0, compression)
        for mean, weight in points[1:]:
            q_new = (done + cur_weight + weight) / total
            if self._k_scale(q_new, compression) - k_floor <= 1.0:
                cur_sum += mean * weight
                cur_weight += weight
            else:
                means.append(cur_sum / cur_weight)
                weights.append(cur_weight)
                done += cur_weight
                k_floor = self._k_scale(done / total, compression)
                cur_sum = mean * weight
                cur_weight = weight
        means.append(cur_sum / cur_weight)
        weights.append(cur_weight)
        return means, weights

    @property
    def mean(self):
        return self._sum / self.count if self.count else None

    def quantile(self, q):
        if self.count == 0:
            return None
        if self._buffer:
            self._compress()
        means, weights = self._means, self._weights
        if len(means) == 1:
            return means[0]
        target = q * self.count
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


# Ints and floats mixed, so ``float()`` coercion is covered; enough samples
# per step that a stream crosses the 40-sample buffer cap again and again.
VALUES = st.one_of(st.integers(min_value=0, max_value=1_000),
                   st.floats(min_value=0.0, max_value=1e6,
                             allow_nan=False, allow_infinity=False))
STEPS = st.lists(st.one_of(
    st.tuples(st.just("add"), st.lists(VALUES, min_size=1, max_size=30)),
    st.tuples(st.just("add"), st.lists(VALUES, min_size=35, max_size=130)),
    st.tuples(st.sampled_from(["count", "mean", "extremes"]), st.none()),
    st.tuples(st.just("quantile"), st.sampled_from(QUANTILES)),
    st.tuples(st.just("merge"), st.lists(VALUES, max_size=90)),
), min_size=1, max_size=25)


def _same_state(digest, reference):
    """``==`` on every exact statistic, the centroids and every quantile."""
    assert digest.count == reference.count
    assert digest.mean == reference.mean
    assert digest.minimum == reference._min
    assert digest.maximum == reference._max
    assert (digest._means, digest._weights) == (reference._means,
                                                reference._weights)
    assert digest._buffer == reference._buffer
    for q in QUANTILES:
        assert digest.quantile(q) == reference.quantile(q)


@given(steps=STEPS)
@settings(max_examples=120, deadline=None)
def test_deferred_bookkeeping_matches_the_eager_digest(steps):
    """Interleaved adds, reads and merges: the same buffer cap, the same
    compress schedule, the same point order, so the same floats."""
    digest, reference = LatencyDigest(10), EagerDigest(10)
    for step, argument in steps:
        if step == "add":
            for value in argument:
                digest.add(value)
                reference.add(value)
            assert digest._buffer == reference._buffer
            assert len(digest._buffer) < digest._buffer_cap == 4 * 10
        elif step == "count":
            assert digest.count == reference.count
        elif step == "mean":
            assert digest.mean == reference.mean
        elif step == "extremes":
            assert (digest.minimum, digest.maximum) == (reference._min,
                                                        reference._max)
        elif step == "quantile":
            assert digest.quantile(argument) == reference.quantile(argument)
        else:
            other, other_reference = LatencyDigest(10), EagerDigest(10)
            for value in argument:
                other.add(value)
                other_reference.add(value)
            digest.merge(other)
            reference.merge(other_reference)
            # Merging reads the other side without consuming it.
            assert other._buffer == other_reference._buffer
            assert other.count == other_reference.count
        assert (digest._means, digest._weights) == (reference._means,
                                                    reference._weights)
    _same_state(digest, reference)


def test_deferred_bookkeeping_matches_on_a_long_stream():
    """Default compression, 50 000 samples: hundreds of compresses."""
    digest, reference = LatencyDigest(), EagerDigest()
    for index in range(50_000):
        value = (index * 7919) % 10_007 / 7.0
        digest.add(value)
        reference.add(value)
    _same_state(digest, reference)
