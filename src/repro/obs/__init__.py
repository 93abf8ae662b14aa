"""Observability: causal tracing, critical-path analysis, anomaly provenance.

The tracing subsystem is *zero-overhead when disabled*: no tracer is
constructed unless ``Scenario.tracing`` is set, and every instrumentation
site guards on ``tracer is not None`` before doing any work.  When enabled,
span bookkeeping is purely inline — no extra simulator events are scheduled,
no randomness is consumed, and no timing changes — so traced runs execute
the *exact same event sequence* as untraced ones (pinned by
``TestGoldenKernelRun`` in ``tests/bench/test_golden_artifacts.py``, which
runs the canonical causal config traced and requires the untraced count).
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.staleness import StalenessProbe
from repro.obs.trace import FaultLedger, FaultWindow, Span, Tracer

__all__ = ["FaultLedger", "FaultWindow", "MetricsRegistry", "Span",
           "StalenessProbe", "Tracer"]
