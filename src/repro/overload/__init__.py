"""Overload robustness: retry discipline and server-side admission control.

Two halves of one defense.  The *client* half (:mod:`repro.overload.retry`)
bounds how much extra load a struggling system receives: one documented
:class:`RetryPolicy` gathers every timeout/backoff knob that used to be
scattered across run configs, and its runtime companions — the
:class:`RetryBudget` token bucket and the :class:`CircuitBreaker` — cap
retry amplification at a known factor.  The *server* half
(:mod:`repro.overload.admission`) bounds how much work a server accepts:
a bounded request queue that sheds adaptive-LIFO with explicit
``Overloaded`` rejections instead of silently growing latency.

Everything here is opt-in: a run that configures none of it executes the
exact same event sequence as before the subsystem existed.
"""

from repro.overload.admission import FOREGROUND_KINDS
from repro.overload.retry import CircuitBreaker, RetryBudget, RetryPolicy

__all__ = [
    "CircuitBreaker",
    "FOREGROUND_KINDS",
    "RetryBudget",
    "RetryPolicy",
]
