"""Causal tracing core: spans, trace contexts, and fault windows.

A :class:`Tracer` is attached to the :class:`~repro.net.network.Network`
when ``Scenario.tracing`` is on.  Instrumentation sites throughout the
request path — client execute, RPC issue/complete, server dispatch,
anti-entropy pushes, lock grants, session repairs — create :class:`Span`
records stamped with *simulated-clock* timestamps, linked into per-
transaction trees by the trace context carried on processes and messages:
the parent :class:`Span` itself, which already holds the trace id and the
span id a child needs.

The chaos nemesis and membership coordinator report faults as
:class:`FaultWindow` intervals to the deployment's one :class:`FaultLedger`
(owned by the testbed, shared by the tracer and the metrics registry);
:meth:`Tracer.finalize` stamps every span with the windows it overlapped,
which is what lets the provenance joiner say "this anomaly's writes raced
inside partition w3".

Determinism: all ids are tracer-local counters (never global, never
process-wide), so two runs of the same seeded scenario produce identical
traces — including across ``--jobs`` process pools, where *global* counters
(like transaction ids) diverge between forked workers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Span", "SpanNames", "FaultWindow", "FaultLedger", "Tracer"]

_new_span = object.__new__


class Span:
    """One timed unit of work on the simulated clock.

    A span is also the trace context of its children: what propagates is
    ``trace_id`` (which trace) and ``span_id`` (which span is the parent).
    Only :meth:`Tracer.start_span` makes one, filling the slots of a bare
    instance (no ``__init__`` frame per span): an open span has ``end_ms``
    None, ``status`` ``"ok"``, empty ``attrs`` and no ``faults``.
    """

    __slots__ = ("span_id", "parent_id", "trace_id", "name", "kind", "site",
                 "start_ms", "end_ms", "status", "attrs", "faults")

    @property
    def duration_ms(self) -> float:
        end = self.end_ms if self.end_ms is not None else self.start_ms
        return end - self.start_ms


class SpanNames(dict):
    """``prefix:kind`` span names, each built once per message kind."""

    def __init__(self, prefix: str):
        self.prefix = prefix

    def __missing__(self, kind: str) -> str:
        name = self[kind] = f"{self.prefix}:{kind}"
        return name


class FaultWindow:
    """An interval during which a fault (or handoff) was active."""

    __slots__ = ("window_id", "kind", "targets", "start_ms", "end_ms",
                 "description")

    def __init__(self, window_id: int, kind: str, targets: Tuple[str, ...],
                 start_ms: float, description: str = ""):
        self.window_id = window_id
        self.kind = kind
        self.targets = targets
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.description = description

    def overlaps(self, start_ms: float, end_ms: float) -> bool:
        window_end = self.end_ms if self.end_ms is not None else float("inf")
        return start_ms < window_end and end_ms > self.start_ms

    def as_dict(self) -> Dict[str, object]:
        fields = {slot: getattr(self, slot) for slot in self.__slots__}
        fields["targets"] = list(self.targets)
        return fields


#: Fault kinds that open an interval, mapped to the kinds that close it.
#: ``partition`` windows are closed by any heal (``heal`` and
#: ``clear-partition`` both tear down every inter-region cut); the targeted
#: pairs close only windows whose target set matches.
_OPENERS = {"partition", "isolate", "crash", "degrade"}
_CLOSERS = {
    "heal": ("partition",),
    "clear-partition": ("partition",),
    "rejoin": ("isolate",),
    "recover": ("crash",),
    "restore": ("degrade",),
}


class FaultLedger:
    """One deployment's fault (and handoff) windows, in firing order.

    The testbed owns the ledger; the nemesis and the membership coordinator
    feed it once, and the tracer and the metrics registry both read it.
    Window ids are ledger-local counters starting at 1.
    """

    def __init__(self):
        self.windows: List[FaultWindow] = []
        self._open: List[FaultWindow] = []
        self._next_id = 1

    def open(self, kind: str, targets: Sequence[str], at_ms: float,
             description: str = "") -> FaultWindow:
        window = FaultWindow(self._next_id, kind, tuple(targets), at_ms,
                             description)
        self._next_id += 1
        self.windows.append(window)
        self._open.append(window)
        return window

    def close(self, window: FaultWindow, at_ms: float) -> None:
        if window.end_ms is None:
            window.end_ms = at_ms
        if window in self._open:
            self._open.remove(window)

    def on_fault(self, kind: str, targets: Sequence[str], at_ms: float,
                 description: str = "") -> None:
        """Structured fault feed from the nemesis.

        Opening kinds start a window; their paired closing kinds end every
        open window of the matching kind (and, for targeted pairs like
        ``rejoin``/``recover``, the matching target).
        """
        if kind in _OPENERS:
            self.open(kind, targets, at_ms, description)
            return
        closes = _CLOSERS.get(kind)
        if closes is None:
            # Informational (scale-out/scale-in, ...): a zero-width marker
            # window so the timeline still records it.
            self.close(self.open(kind, targets, at_ms, description), at_ms)
            return
        targets = tuple(targets)
        for window in list(self._open):
            if window.kind not in closes:
                continue
            if targets and window.targets and set(window.targets) != set(targets):
                continue
            self.close(window, at_ms)

    def close_all(self, now_ms: float) -> None:
        """End of run: close whatever is still open."""
        for window in list(self._open):
            self.close(window, now_ms)


class Tracer:
    """Span sink for one traced run, joined to the deployment's faults."""

    def __init__(self, faults: Optional[FaultLedger] = None):
        self.spans: List[Span] = []
        #: The deployment's ledger (a private one for a bare ``Tracer()``).
        self.faults = faults if faults is not None else FaultLedger()
        self._next_span = 1
        self._next_trace = 1
        self._by_txn: Dict[int, Span] = {}
        self.rpc_names = SpanNames("rpc")
        self.server_names = SpanNames("server")

    @property
    def fault_windows(self) -> List[FaultWindow]:
        return self.faults.windows

    # -- spans ---------------------------------------------------------------
    def start_span(self, name: str, kind: str, parent: Optional[Span],
                   site: str, start_ms: float) -> Span:
        """Open a span.  ``parent=None`` starts a fresh trace (e.g. an
        anti-entropy push, which no client transaction caused)."""
        if parent is None:
            trace_id = self._next_trace
            self._next_trace += 1
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = _new_span(Span)
        span.span_id, span.parent_id, span.trace_id = self._next_span, parent_id, trace_id
        span.name, span.kind, span.site = name, kind, site
        span.start_ms, span.end_ms, span.status = start_ms, None, "ok"
        span.attrs, span.faults = {}, ()
        self._next_span += 1
        self.spans.append(span)
        return span

    def finish(self, span: Span, end_ms: float, status: str = "ok") -> None:
        span.end_ms = end_ms
        span.status = status

    def event(self, name: str, parent: Span, site: str,
              at_ms: float) -> Span:
        """An instantaneous annotation (failover, session repair, ...)."""
        span = self.start_span(name, "event", parent, site, at_ms)
        span.end_ms = at_ms
        return span

    # -- transactions --------------------------------------------------------
    def begin_transaction(self, txn_id: int, protocol: str, site: str,
                          start_ms: float, label: Optional[str] = None) -> Span:
        span = self.start_span(f"txn:{protocol}", "txn", None, site, start_ms)
        span.attrs["protocol"] = protocol
        if label is not None:
            span.attrs["label"] = label
        self._by_txn[txn_id] = span
        return span

    def finish_transaction(self, txn_id: int, end_ms: float, committed: bool,
                           error: Optional[str] = None,
                           remote_rpcs: int = 0) -> None:
        span = self._by_txn.get(txn_id)
        if span is None:
            return
        span.end_ms = end_ms
        span.status = "ok" if committed else "aborted"
        span.attrs["committed"] = committed
        span.attrs["remote_rpcs"] = remote_rpcs
        if error is not None:
            span.attrs["error"] = error

    def transaction_span(self, txn_id: int) -> Optional[Span]:
        return self._by_txn.get(txn_id)

    # -- finalization --------------------------------------------------------
    def finalize(self, now_ms: float) -> None:
        """Close open windows and unfinished spans, stamp fault overlaps."""
        self.faults.close_all(now_ms)
        windows = [w for w in self.fault_windows
                   if (w.end_ms or 0.0) > w.start_ms]
        for span in self.spans:
            if span.end_ms is None:
                span.end_ms = span.start_ms
            if windows:
                hits = tuple(w.window_id for w in windows
                             if w.overlaps(span.start_ms, span.end_ms))
                if hits:
                    span.faults = hits
