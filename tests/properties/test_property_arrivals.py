"""Property tests for the open-loop arrival processes.

The traffic engine's whole claim is that load is a *deterministic seeded
arrival process*: same seed, same arrivals, down to float equality.  These
properties pin that, plus the statistical shape each generator promises —
Poisson interarrival means, the MMPP dwell structure, and the ramp's rate
envelope (thinning can only ever *remove* arrivals from the peak-rate
Poisson stream, so envelope bounds are hard, not probabilistic).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.loadgen.arrivals import (
    MMPPArrivals,
    PoissonArrivals,
    RampArrivals,
)

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)
RATES = st.floats(min_value=5.0, max_value=500.0,
                  allow_nan=False, allow_infinity=False)

PROCESS_BUILDERS = [
    lambda: PoissonArrivals(80.0),
    lambda: MMPPArrivals(20.0, 200.0, mean_low_dwell_ms=400.0,
                         mean_high_dwell_ms=150.0),
    lambda: RampArrivals(10.0, 150.0, 3_000.0),
]


@pytest.mark.parametrize("build", PROCESS_BUILDERS,
                         ids=["poisson", "mmpp", "ramp"])
@given(seed=SEEDS)
@settings(max_examples=20, deadline=None)
def test_same_seed_same_arrivals(build, seed):
    first = list(build().arrivals(random.Random(seed), 0.0, 4_000.0))
    second = list(build().arrivals(random.Random(seed), 0.0, 4_000.0))
    assert first == second  # float equality, not approx


@pytest.mark.parametrize("build", PROCESS_BUILDERS,
                         ids=["poisson", "mmpp", "ramp"])
def test_arrivals_sorted_and_in_window(build):
    times = list(build().arrivals(random.Random(7), 100.0, 4_100.0))
    assert times == sorted(times)
    assert all(100.0 <= t < 4_100.0 for t in times)


@given(rate=RATES, seed=SEEDS)
@settings(max_examples=25, deadline=None)
def test_poisson_interarrival_mean(rate, seed):
    """Mean interarrival converges on 1000/rate ms (law of large numbers)."""
    process = PoissonArrivals(rate)
    # Long enough for ~2000 arrivals regardless of the drawn rate.
    horizon_ms = 2_000.0 * 1000.0 / rate
    times = list(process.arrivals(random.Random(seed), 0.0, horizon_ms))
    assert len(times) > 100
    gaps = [b - a for a, b in zip(times, times[1:])]
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap == pytest.approx(1000.0 / rate, rel=0.15)


@given(seed=SEEDS)
@settings(max_examples=25, deadline=None)
def test_ramp_rate_grows(seed):
    """A ramp offers measurably more load in its last third than its first."""
    process = RampArrivals(10.0, 300.0, 6_000.0)
    times = list(process.arrivals(random.Random(seed), 0.0, 6_000.0))
    first = sum(1 for t in times if t < 2_000.0)
    last = sum(1 for t in times if t >= 4_000.0)
    assert last > first
    assert process.rate_at(0.0) == pytest.approx(10.0)
    assert process.rate_at(6_000.0) == pytest.approx(300.0)
    assert process.rate_at(9_000.0) == pytest.approx(300.0)  # flat after ramp


@given(seed=SEEDS)
@settings(max_examples=15, deadline=None)
def test_mmpp_rate_between_states(seed):
    """MMPP's long-run rate lands between the low and high state rates."""
    process = MMPPArrivals(10.0, 200.0, mean_low_dwell_ms=500.0,
                           mean_high_dwell_ms=500.0)
    horizon_ms = 60_000.0
    times = list(process.arrivals(random.Random(seed), 0.0, horizon_ms))
    observed_rate = len(times) / (horizon_ms / 1000.0)
    assert 10.0 <= observed_rate <= 200.0
