"""Latency models calibrated to the paper's Table 1.

Table 1 reports mean round-trip times (RTTs) on EC2:

* Table 1a — within one availability zone: 0.50-0.56 ms,
* Table 1b — across availability zones in us-east: 1.08-3.57 ms,
* Table 1c — across regions: 22.5-362.8 ms, with a full pairwise matrix.

The paper also reports the 95th percentile for the slowest link (Sao Paulo to
Singapore: mean 362.8 ms, p95 649 ms), which we use to calibrate dispersion.
One-way latency is modelled as half the RTT mean scaled by a lognormal
multiplier, which reproduces the long right tail visible in Figure 1.
"""

from __future__ import annotations

import random
from itertools import chain, repeat
from math import exp, fsum
from operator import itemgetter
from statistics import NormalDist
from struct import Struct
from typing import Dict, Iterator, Tuple

from repro.errors import NetworkError
from repro.net.topology import (
    SCOPE_CROSS_REGION,
    SCOPE_INTER_AZ,
    SCOPE_INTRA_AZ,
    SCOPE_SAME_HOST,
    Topology,
)

#: Mean cross-region RTTs (milliseconds) from Table 1c.  Keys are unordered
#: region pairs.  The matrix in the paper is upper-triangular; we mirror it.
TABLE_1C_RTT_MS: Dict[Tuple[str, str], float] = {
    ("CA", "OR"): 22.5,
    ("CA", "VA"): 84.5,
    ("CA", "TO"): 143.7,
    ("CA", "IR"): 169.8,
    ("CA", "SY"): 179.1,
    ("CA", "SP"): 185.9,
    ("CA", "SI"): 186.9,
    ("OR", "VA"): 82.9,
    ("OR", "TO"): 135.1,
    ("OR", "IR"): 170.6,
    ("OR", "SY"): 200.6,
    ("OR", "SP"): 207.8,
    ("OR", "SI"): 234.4,
    ("VA", "TO"): 202.4,
    ("VA", "IR"): 107.9,
    ("VA", "SY"): 265.6,
    ("VA", "SP"): 163.4,
    ("VA", "SI"): 253.5,
    ("TO", "IR"): 278.3,
    ("TO", "SY"): 144.2,
    ("TO", "SP"): 301.4,
    ("TO", "SI"): 90.6,
    ("IR", "SY"): 346.2,
    ("IR", "SP"): 239.8,
    ("IR", "SI"): 234.1,
    ("SY", "SP"): 333.6,
    ("SY", "SI"): 243.1,
    ("SP", "SI"): 362.8,
}

#: Mean intra-AZ RTTs (Table 1a) and inter-AZ RTTs (Table 1b).
TABLE_1A_MEAN_RTT_MS = 0.554  # mean of {0.55, 0.56, 0.50}
TABLE_1B_MEAN_RTT_MS = 2.59  # mean of {1.08, 3.12, 3.57}
#: Two sites on one host (loopback; not in the paper's tables).
SAME_HOST_RTT_MS = 0.1

#: Lognormal sigma calibrated so that p95/mean is roughly 1.8, matching the
#: Sao Paulo - Singapore link (649 ms p95 vs 362.8 ms mean).
LOGNORMAL_SIGMA = 0.35
#: The lognormal location parameter that makes the multiplier's mean exactly
#: 1: mean(lognormal(mu, sigma)) = exp(mu + sigma^2 / 2).
LOGNORMAL_MU = -0.5 * LOGNORMAL_SIGMA * LOGNORMAL_SIGMA

#: Latency multipliers are drawn in blocks of this size (see
#: :meth:`EC2LatencyModel.multipliers`): one ``randbytes`` draw, read as
#: little-endian 16-bit indices whatever the host's byte order.
MULTIPLIER_BLOCK = 4096
_INDICES = Struct(f"<{MULTIPLIER_BLOCK}H")


def _multiplier_table() -> Tuple[float, ...]:
    """The lognormal's 2^16 midpoint quantiles, scaled to mean exactly one:
    a uniform index into it is a lognormal multiplier (the table reaches
    4.3 standard deviations into either tail)."""
    size, quantile = 1 << 16, NormalDist(LOGNORMAL_MU, LOGNORMAL_SIGMA).inv_cdf
    table = [exp(quantile((i + 0.5) / size)) for i in range(size)]
    scale = size / fsum(table)
    return tuple([multiplier * scale for multiplier in table])


#: Every multiplier a draw can return, in ascending order; one 16-bit index
#: picks one.
MULTIPLIERS = _multiplier_table()


def cross_region_rtt(region_a: str, region_b: str) -> float:
    """Mean RTT between two regions from Table 1c (symmetric lookup)."""
    if region_a == region_b:
        raise NetworkError("cross_region_rtt() requires two distinct regions")
    key = (region_a, region_b)
    if key in TABLE_1C_RTT_MS:
        return TABLE_1C_RTT_MS[key]
    key = (region_b, region_a)
    if key in TABLE_1C_RTT_MS:
        return TABLE_1C_RTT_MS[key]
    raise NetworkError(f"no Table 1c entry for regions {region_a!r}, {region_b!r}")


class LatencyModel:
    """Interface: one-way message latency between two sites — half the
    pair's mean RTT times the next value of the caller's multiplier stream
    (the network holds both factors, so a message costs it no call here)."""

    def one_way(self, rng: random.Random, src: str, dst: str) -> float:
        """Sample a one-way latency in milliseconds for a message."""
        return self.mean_rtt(src, dst) * 0.5 * next(self.multipliers(rng))

    def mean_rtt(self, src: str, dst: str) -> float:
        """Mean round-trip time between two sites in milliseconds."""
        raise NotImplementedError

    def multipliers(self, rng: random.Random) -> Iterator[float]:
        """The endless dispersion stream drawn from ``rng`` (mean one); one
        stream per ``rng``, shared by its callers.  No dispersion by default."""
        return repeat(1.0)


class FixedLatencyModel(LatencyModel):
    """Constant latency; useful for unit tests and microbenchmarks."""

    def __init__(self, one_way_ms: float = 1.0):
        if one_way_ms < 0:
            raise NetworkError("latency must be non-negative")
        self.one_way_ms = one_way_ms

    def mean_rtt(self, src: str, dst: str) -> float:
        return 2.0 * self.one_way_ms


class EC2LatencyModel(LatencyModel):
    """Latency model calibrated to the paper's EC2 measurements.

    The mean RTT is selected by communication scope (same host, intra-AZ,
    inter-AZ, cross-region, the last from the Table 1c matrix), then a
    lognormal multiplier adds dispersion.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        #: random stream -> its multiplier stream (see :meth:`multipliers`).
        self._multipliers: Dict[random.Random, Iterator[float]] = {}

    # -- means --------------------------------------------------------------
    def mean_rtt(self, src: str, dst: str) -> float:
        scope = self.topology.scope(src, dst)
        if scope == SCOPE_SAME_HOST:
            return SAME_HOST_RTT_MS
        if scope == SCOPE_INTRA_AZ:
            return TABLE_1A_MEAN_RTT_MS
        if scope == SCOPE_INTER_AZ:
            return TABLE_1B_MEAN_RTT_MS
        if scope == SCOPE_CROSS_REGION:
            return cross_region_rtt(self.topology.site(src).region,
                                    self.topology.site(dst).region)
        raise NetworkError(f"unknown scope {scope!r}")

    # -- samples ------------------------------------------------------------
    def multipliers(self, rng: random.Random) -> Iterator[float]:
        """Lognormal multipliers looked up in :data:`MULTIPLIERS`: 4096
        indices per ``randbytes`` draw from the caller's stream, drawn when
        the previous block runs out (deterministic per seed, a table lookup
        per message instead of ``gauss`` + ``exp``)."""
        stream = self._multipliers.get(rng)
        if stream is None:
            stream = self._multipliers[rng] = chain.from_iterable(
                itemgetter(*_INDICES.unpack(rng.randbytes(_INDICES.size)))(
                    MULTIPLIERS) for _ in repeat(None))
        return stream

    def sample_rtt(self, rng: random.Random, src: str, dst: str) -> float:
        """Sample a full round trip (two independent one-way legs)."""
        return self.one_way(rng, src, dst) + self.one_way(rng, dst, src)
