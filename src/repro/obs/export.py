"""Exporters: Chrome trace-event JSON (Perfetto-loadable).

The Chrome trace-event format is a flat list of events; we emit complete
("X") duration events — one per span, with microsecond timestamps derived
from the simulated clock — grouped into tracks by site (each server,
client, and the fault timeline get their own ``tid``), plus "M" metadata
events naming the tracks.  A served RPC span also draws its server's
slice (queue wait + service, from its attributes) on the server's track.
Load the file at https://ui.perfetto.dev or ``chrome://tracing``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.obs.trace import FaultWindow, Span

__all__ = ["chrome_trace"]

#: The synthetic track carrying fault windows.
FAULT_TRACK = "faults"


def _slice(name: str, cat: str, start_ms: float, end_ms: Optional[float],
           tid: int, args: Dict[str, object]) -> Dict[str, object]:
    """One complete ("X") event; an open interval is drawn zero-wide."""
    end_ms = start_ms if end_ms is None else end_ms
    return {"name": name, "cat": cat, "ph": "X", "ts": start_ms * 1000.0,
            "dur": max(0.0, end_ms - start_ms) * 1000.0, "pid": 1,
            "tid": tid, "args": args}


def chrome_trace(spans: Iterable[Span],
                 fault_windows: Iterable[FaultWindow] = (),
                 process_name: str = "repro") -> Dict[str, object]:
    """Render spans + fault windows as a Chrome trace-event JSON dict."""
    spans = list(spans)
    windows = list(fault_windows)
    served = [span for span in spans if "arrival_ms" in span.attrs]
    sites = sorted({span.site for span in spans}
                   | {span.attrs["dst"] for span in served})
    tids = {site: index + 1 for index, site in enumerate(sites)}
    fault_tid = len(sites) + 1
    events: List[Dict[str, object]] = [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
         "args": {"name": process_name}},
    ]
    for site in sites:
        events.append({"ph": "M", "pid": 1, "tid": tids[site],
                       "name": "thread_name", "args": {"name": site}})
    if windows:
        events.append({"ph": "M", "pid": 1, "tid": fault_tid,
                       "name": "thread_name", "args": {"name": FAULT_TRACK}})
    for span in spans:
        args: Dict[str, object] = {"trace_id": span.trace_id,
                                   "span_id": span.span_id,
                                   "status": span.status}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.faults:
            args["faults"] = list(span.faults)
        args.update(span.attrs)
        events.append(_slice(span.name, span.kind, span.start_ms,
                             span.end_ms, tids[span.site], args))
    for span in served:  # the server's side of the round trip, on its track
        attrs = span.attrs
        arrival, wait = attrs["arrival_ms"], attrs["queue_wait_ms"]
        events.append(_slice(
            "server:" + span.name.removeprefix("rpc:"), "server", arrival,
            arrival + wait + attrs["service_ms"], tids[attrs["dst"]],
            {"trace_id": span.trace_id, "span_id": span.span_id,
             "queue_wait_ms": wait, "service_ms": attrs["service_ms"],
             "queue_depth": attrs["queue_depth"]}))
    for window in windows:
        events.append(_slice(
            f"{window.kind}:{','.join(window.targets) or '*'}", "fault",
            window.start_ms, window.end_ms, fault_tid,
            {"window_id": window.window_id,
             "description": window.description}))
    return {"traceEvents": events, "displayTimeUnit": "ms"}
