"""Discrete-event simulation kernel.

The HAT prototype in the paper ran on EC2; this reproduction runs the same
protocols on a deterministic discrete-event simulator so that experiments are
laptop-scale and repeatable.  The kernel intentionally mirrors a small subset
of SimPy's interface:

* :class:`~repro.sim.events.Environment` — the event loop and simulated clock.
* :class:`~repro.sim.events.Future` — a one-shot event that processes wait on.
* :class:`~repro.sim.process.Process` — a generator-based coroutine; yielding
  a :class:`Future` suspends the process until the future resolves.
* :class:`~repro.sim.random.RandomStreams` — named, independent deterministic
  random-number streams.
"""

from repro.sim.events import Environment, Future
from repro.sim.process import Process
from repro.sim.random import RandomStreams

__all__ = ["Environment", "Future", "Process", "RandomStreams"]
