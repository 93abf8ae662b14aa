"""Host CPU-seconds normalised by the machine's speed while they were spent.

A shared host does not run at one speed: on the sizing container the same
pure-Python chunk took 34 to 44 ms from one second to the next, and one
workload repeat 5.2 to 7.3 CPU-seconds with identical work.  ``SpeedProbe``
runs a small fixed chunk of pure-Python work every ``SAMPLE_EVERY_S`` of wall
time *inside* the measured interval (a ``SIGALRM`` handler, so the program is
not touched and executes the same events) and times each chunk.  The mean of
``REF_CHUNK_S / chunk time`` is the machine's speed over the interval relative
to the reference, and raw CPU-seconds times that speed are *reference
seconds*: what the interval would have cost on the reference machine.  Over
ten same-seed repeats this cut the quartile spread of ``ycsb_causal_2x2``
from 0.20 (raw) to 0.02 (normalised).

``child.py`` wraps set-up in a probe too and scales its wall time the same way.

The probe's own CPU time is measured and left out of ``cpu_s`` and ``wall_s``.  Without the
timer (the cProfile run, whose profile the chunks would pollute) it still
samples at entry and exit.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List

#: CPU-seconds of one chunk on the sizing container (2 cores, py3.11) in a
#: quiet phase.  A constant of the benchmark: changing it rescales
#: ``committed_per_host_s`` on every workload.
REF_CHUNK_S = 0.002
#: Wall seconds between samples (about 4 % of the interval goes to chunks).
SAMPLE_EVERY_S = 0.05
_CHUNK_STEPS = 3_000


def _chunk() -> int:
    """Heap, dict, tuple and str churn: the interpreter paths a simulator run
    lives on, small enough to stay in cache."""
    heap: List[tuple] = []
    table = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(_CHUNK_STEPS):
        push(heap, (i * 7919 % 10007, i))
        table[i % 5000] = (i, str(i))
        if i % 3 == 0:
            pop(heap)
    return len(heap)


class SpeedProbe:
    """``with SpeedProbe() as probe: work()``; then ``probe.cpu_s`` and
    ``probe.wall_s`` (raw), ``probe.speed`` and ``probe.reference_s``."""

    def __init__(self, timer: bool = True) -> None:
        self.timer = timer
        #: CPU-seconds of each chunk, in sampling order.
        self.chunk_s: List[float] = []
        #: Raw CPU- and wall-seconds of the interval, the probe's own left out.
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self._own_cpu_s = self._own_wall_s = 0.0
        self._cpu_start = self._wall_start = 0.0
        self._sampling = False
        self._previous_handler = None

    def _sample(self, *_signal_args) -> None:
        if self._sampling:  # a late alarm landed inside the previous sample
            return
        self._sampling = True
        wall_start, start = time.perf_counter(), time.process_time()
        _chunk()
        spent = time.process_time() - start
        self.chunk_s.append(spent)
        self._own_cpu_s += spent
        self._own_wall_s += time.perf_counter() - wall_start
        self._sampling = False

    def __enter__(self) -> "SpeedProbe":
        for _ in range(3):  # warm the chunk's own caches, untimed
            _chunk()
        self._sample()
        self._own_cpu_s = self._own_wall_s = 0.0
        if self.timer:
            self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()
        return self

    def __exit__(self, *_exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        self.cpu_s = time.process_time() - self._cpu_start - self._own_cpu_s
        self.wall_s = time.perf_counter() - self._wall_start - self._own_wall_s
        self._sample()

    @property
    def speed(self) -> float:
        """Mean machine speed over the interval; 1.0 is the reference.

        A chunk cannot run faster than the machine, so a disturbed sample only
        reads slow, and the mean of the reciprocals bounds what it can add.
        """
        return sum(REF_CHUNK_S / s for s in self.chunk_s) / len(self.chunk_s)

    @property
    def reference_s(self) -> float:
        """The interval's CPU-seconds at the reference machine's speed."""
        return self.cpu_s * self.speed
