"""Deterministic named random streams.

Experiments need independent randomness for the network, the workload, and
failure injection so that, e.g., changing the workload seed does not change
the network latencies.  ``RandomStreams`` derives an independent
``random.Random`` per name from a single root seed.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """A family of named, independently seeded ``random.Random`` streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RandomStreams(seed={self.seed}, streams={sorted(self._streams)})"
