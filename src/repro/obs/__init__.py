"""Observability: causal tracing, critical-path analysis, anomaly provenance.

Free when off, cheap when on.  No tracer or registry exists unless
``Scenario.tracing`` / ``Scenario.metrics`` is set, and a component settles
what it records when it is built (the sinks are installed first).  Metrics:
hot seams resolve their series once into handles kept in one probe attribute
that is ``None`` without a registry — one local check, then
``handle.observe(now, x)``; a series enters the exports when first touched;
cold seams use the by-name calls, which resolve a handle and delegate.
Tracing: a :class:`Span` is its own trace context, so only the two places
that *start* traces (a client's ``execute``, an anti-entropy push) test the
tracer; elsewhere the context a message, process or transaction carries is
the check.  All bookkeeping is inline — no simulator events, no randomness,
no timing — so an observed run executes the *exact same event sequence* as
an unobserved one (pinned by ``TestGoldenKernelRun`` in
``tests/bench/test_golden_artifacts.py``; what an observed run records per
committed transaction is pinned in ``tests/bench/test_cost_per_txn.py``).
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.staleness import StalenessProbe
from repro.obs.trace import FaultLedger, FaultWindow, Span, Tracer

__all__ = ["FaultLedger", "FaultWindow", "MetricsRegistry", "Span",
           "StalenessProbe", "Tracer"]
