"""Property tests for the log-linear latency histogram.

The histogram carries every open-loop, telemetry and metrics distribution,
so four things must hold no matter what data streams in: exact statistics
(count, min, max and the arrival-order mean are not approximations), a
quantile inside the bucket of the exact nearest-rank sample, an exact merge
(any split of a stream merges to the whole stream's buckets, which is what
makes per-window -> per-run and ``--jobs N`` roll-ups sound), and no
randomness drawn.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.loadgen.sketch import SUB_BUCKETS, LatencyDigest

VALUES = st.one_of(
    st.floats(min_value=0.0, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=300).map(float))
SAMPLES = st.lists(VALUES, min_size=1, max_size=400)

QUANTILES = (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0)


def _digest(samples):
    digest = LatencyDigest()
    digest.extend(samples)
    return digest


def _bucket(value):
    """The index of the one bucket a lone ``value`` fills."""
    (index,) = _digest([value]).buckets
    return index


def _nearest_rank(samples, q):
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


@given(samples=SAMPLES)
@settings(max_examples=60, deadline=None)
def test_exact_statistics(samples):
    digest = _digest(samples)
    total = 0.0
    for sample in samples:  # arrival order
        total += sample
    assert digest.count == len(samples)
    assert digest.minimum == min(samples)
    assert digest.maximum == max(samples)
    assert digest.mean == total / len(samples)


@given(samples=SAMPLES, extra=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_each_quantile_lies_in_the_nearest_rank_samples_bucket(samples, extra):
    """The lower edge of the sample's bucket, clamped to [min, max]: never
    above the sample, and under 1/128 of it below."""
    digest = _digest(samples)
    for q in QUANTILES + (extra,):
        exact, estimate = _nearest_rank(samples, q), digest.quantile(q)
        assert _bucket(estimate) == _bucket(exact)
        assert min(samples) <= estimate <= exact
        assert exact - estimate <= exact / SUB_BUCKETS


@given(samples=SAMPLES)
@settings(max_examples=60, deadline=None)
def test_the_extremes_are_exact(samples):
    digest = _digest(samples)
    assert digest.quantile(0.0) == min(samples)
    assert digest.quantile(1.0) == max(samples)


@given(samples=st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                        max_size=400))
@settings(max_examples=60, deadline=None)
def test_integers_below_256_are_reported_exactly(samples):
    """Queue depths, backlogs and staleness counts: each is its own edge."""
    digest = _digest(samples)
    for q in QUANTILES:
        assert digest.quantile(q) == _nearest_rank(samples, q)


@given(samples=st.lists(VALUES, min_size=2, max_size=400),
       cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=6),
       order=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_merge_of_parts_matches_whole(samples, cuts, order):
    """Any split, merged in any order: the whole stream's buckets, count,
    min and max; the mean to 1e-12 (the sum adds in another order)."""
    bounds = sorted({min(cut, len(samples)) for cut in cuts} | {0, len(samples)})
    parts = [_digest(samples[a:b]) for a, b in zip(bounds, bounds[1:])]
    order.shuffle(parts)
    merged = LatencyDigest()
    for part in parts:
        assert merged.merge(part) is merged
    whole = _digest(samples)
    assert merged.buckets == whole.buckets
    assert (merged.count, merged.minimum, merged.maximum) == (
        whole.count, whole.minimum, whole.maximum)
    assert merged.mean == pytest.approx(whole.mean, rel=1e-12, abs=0.0)
    for q in QUANTILES:
        assert merged.quantile(q) == whole.quantile(q)


def test_deterministic_no_randomness():
    state = random.getstate()
    a, b = LatencyDigest(), LatencyDigest()
    data = [float((i * 7919) % 1000) / 7.0 for i in range(5000)]
    a.extend(data)
    b.extend(data)
    assert [a.quantile(q) for q in QUANTILES] == [b.quantile(q) for q in QUANTILES]
    assert a.buckets == b.buckets
    assert random.getstate() == state


def test_empty_digest():
    digest = LatencyDigest()
    assert digest.count == 0
    assert digest.mean is None
    assert digest.minimum is None
    assert digest.maximum is None
    assert [digest.quantile(q) for q in QUANTILES] == [None] * len(QUANTILES)
    assert LatencyDigest().merge(digest).buckets == {}


@pytest.mark.parametrize("value", [-1.0, -1e-300, math.nan])
def test_a_negative_or_nan_value_raises(value):
    with pytest.raises(ValueError):
        LatencyDigest().add(value)
