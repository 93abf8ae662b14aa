"""Open-loop arrival processes: load as a *rate*, not a client population.

A closed-loop driver couples the request rate to response latency — a slow
system receives less load, which hides saturation (the coordinated-omission
trap).  These generators model what production traffic actually is: an
arrival *process* whose rate is set by the outside world.  Each generator
yields absolute arrival times drawn from a caller-supplied
``random.Random``, so a seeded run is deterministic and two clusters get
independent-but-reproducible streams from independently seeded RNGs.

Three families, per the traffic the paper's availability story is about:

* :class:`PoissonArrivals` — memoryless steady-state traffic.
* :class:`MMPPArrivals` — bursty traffic: a two-state Markov-modulated
  Poisson process alternating between a low and a high rate with
  exponentially distributed dwell times.
* :class:`RampArrivals` — a linear rate ramp (the saturation experiment's
  probe: offered load sweeps through the knee within one run), generated
  by thinning a peak-rate Poisson stream.

Rates are expressed per *simulated second*; times are simulated
milliseconds, matching the rest of the simulator.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ReproError

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "RampArrivals",
]


class ArrivalProcess(abc.ABC):
    """A generator of absolute arrival times over a fixed interval."""

    @abc.abstractmethod
    def arrivals(self, rng: random.Random, start_ms: float,
                 end_ms: float) -> Iterator[float]:
        """Yield nondecreasing arrival times in ``[start_ms, end_ms)``."""


def _check_rate(name: str, rate: float) -> None:
    if rate <= 0.0:
        raise ReproError(f"{name} must be positive (got {rate!r})")


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals: exponential interarrival times."""

    rate_per_s: float

    def __post_init__(self) -> None:
        _check_rate("rate_per_s", self.rate_per_s)

    def arrivals(self, rng: random.Random, start_ms: float,
                 end_ms: float) -> Iterator[float]:
        lam_per_ms = self.rate_per_s / 1000.0
        t = start_ms
        while True:
            t += rng.expovariate(lam_per_ms)
            if t >= end_ms:
                return
            yield t


@dataclass(frozen=True)
class MMPPArrivals(ArrivalProcess):
    """Bursty arrivals: a two-state Markov-modulated Poisson process.

    The process alternates between a ``low`` and a ``high`` Poisson rate;
    dwell times in each state are exponential.  Because the exponential is
    memoryless, crossing a state switch mid-interarrival is handled exactly
    by re-drawing from the switch time at the new rate.
    """

    low_rate_per_s: float
    high_rate_per_s: float
    mean_low_dwell_ms: float = 2_000.0
    mean_high_dwell_ms: float = 500.0

    def __post_init__(self) -> None:
        _check_rate("low_rate_per_s", self.low_rate_per_s)
        _check_rate("high_rate_per_s", self.high_rate_per_s)
        _check_rate("mean_low_dwell_ms", self.mean_low_dwell_ms)
        _check_rate("mean_high_dwell_ms", self.mean_high_dwell_ms)

    def arrivals(self, rng: random.Random, start_ms: float,
                 end_ms: float) -> Iterator[float]:
        t = start_ms
        high = False
        switch = t + rng.expovariate(1.0 / self.mean_low_dwell_ms)
        while t < end_ms:
            rate = self.high_rate_per_s if high else self.low_rate_per_s
            candidate = t + rng.expovariate(rate / 1000.0)
            if candidate >= switch:
                # The draw straddles a state switch: restart from the
                # switch instant at the new rate (exact, by memorylessness).
                t = switch
                high = not high
                dwell = (self.mean_high_dwell_ms if high
                         else self.mean_low_dwell_ms)
                switch = t + rng.expovariate(1.0 / dwell)
                continue
            t = candidate
            if t >= end_ms:
                return
            yield t


@dataclass(frozen=True)
class RampArrivals(ArrivalProcess):
    """A linear offered-load ramp over ``duration_ms`` (then held flat).

    The saturation experiment's probe: the offered rate sweeps from
    ``start_rate_per_s`` to ``end_rate_per_s`` within a single run, so the
    knee shows up as the window where completions stop tracking offers.
    Generated by thinning: a homogeneous Poisson stream at the peak rate,
    each candidate kept with probability ``rate(t) / peak`` — the standard
    exact simulation of an inhomogeneous Poisson process.
    """

    start_rate_per_s: float
    end_rate_per_s: float
    duration_ms: float

    def __post_init__(self) -> None:
        _check_rate("start_rate_per_s", self.start_rate_per_s)
        _check_rate("end_rate_per_s", self.end_rate_per_s)
        _check_rate("duration_ms", self.duration_ms)

    def rate_at(self, elapsed_ms: float) -> float:
        frac = min(max(elapsed_ms / self.duration_ms, 0.0), 1.0)
        return self.start_rate_per_s + (self.end_rate_per_s - self.start_rate_per_s) * frac

    def arrivals(self, rng: random.Random, start_ms: float,
                 end_ms: float) -> Iterator[float]:
        peak = max(self.start_rate_per_s, self.end_rate_per_s)
        lam_per_ms = peak / 1000.0
        t = start_ms
        while True:
            t += rng.expovariate(lam_per_ms)
            if t >= end_ms:
                return
            if rng.random() * peak <= self.rate_at(t - start_ms):
                yield t
