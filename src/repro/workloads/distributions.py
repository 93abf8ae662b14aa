"""Key-access distributions for workload generators.

YCSB's standard choices are uniform and zipfian request distributions; the
paper's runs use "uniform random key access" over 100,000 keys, but the
zipfian chooser is provided for skew experiments (ablations beyond the
paper's configurations).
"""

from __future__ import annotations

import bisect
import math
import random
from typing import List

from repro.errors import WorkloadError


class KeyChooser:
    """Interface: pick a key index in ``[0, key_count)``."""

    def __init__(self, key_count: int):
        if key_count < 1:
            raise WorkloadError("key_count must be positive")
        self.key_count = key_count

    def choose(self, rng: random.Random) -> int:
        raise NotImplementedError

    def key(self, rng: random.Random, prefix: str = "user") -> str:
        """Pick a key and format it the way YCSB does (``user<N>``)."""
        return f"{prefix}{self.choose(rng)}"


class UniformKeys(KeyChooser):
    """Uniform random key selection (the paper's configuration)."""

    def key(self, rng: random.Random, prefix: str = "user") -> str:
        """Draw and format a key in one frame.  The loop is the one
        ``randrange(key_count)`` runs (``Random._randbelow_with_getrandbits``):
        the same ``getrandbits`` calls, so the same draws and stream after."""
        count, getrandbits = self.key_count, rng.getrandbits
        index, bits = count, count.bit_length()
        while index >= count:  # draw, then reject: uniform on [0, count)
            index = getrandbits(bits)
        return f"{prefix}{index}"


class ZipfianKeys(KeyChooser):
    """Zipfian selection with exponent ``theta`` (YCSB default 0.99).

    Uses an explicit cumulative distribution over ranks; building it is
    O(key_count) once, sampling is O(log key_count).
    """

    def __init__(self, key_count: int, theta: float = 0.99):
        super().__init__(key_count)
        if not 0 < theta < 2:
            raise WorkloadError(f"zipfian theta out of range: {theta}")
        self.theta = theta
        weights = [1.0 / math.pow(rank, theta) for rank in range(1, key_count + 1)]
        total = sum(weights)
        cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)
        # Guard against floating point drift on the last bucket.
        cumulative[-1] = 1.0
        self._cumulative = cumulative

    def choose(self, rng: random.Random) -> int:
        point = rng.random()
        return bisect.bisect_left(self._cumulative, point)
