"""Anomaly provenance: join audit findings back to traces and faults.

``tpcc_audit`` tells us *that* two NewOrder transactions claimed the same
order id; the tracer tells us *when* each claimant ran and *which* faults
were active.  Joining the two turns an anomaly count into a diagnosis:
"both claimants read next_o_id=3107 from replicas on opposite sides of
partition w2, which was open for the full overlap of their spans".

Determinism note: entries identify transactions by tracer-local trace ids
(assigned in execution order within one run), never by the process-global
transaction-id counter — forked ``--jobs`` workers inherit different counter
offsets, so absolute txn ids are not reproducible across pool layouts.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.trace import Span, Tracer

__all__ = ["join_anomalies"]


def _span_entry(span: Span) -> Dict[str, object]:
    return {
        "trace_id": span.trace_id,
        "start_ms": span.start_ms,
        "end_ms": span.end_ms if span.end_ms is not None else span.start_ms,
        "site": span.site,
        "status": span.status,
        "label": span.attrs.get("label"),
        "faults": list(span.faults),
    }


def _join_group(kind: str, keyed_txns, tracer: Tracer
                ) -> List[Dict[str, object]]:
    entries: List[Dict[str, object]] = []
    for (warehouse, district, order_id), txn_ids in keyed_txns:
        spans = [tracer.transaction_span(txn_id) for txn_id in txn_ids]
        spans = [s for s in spans if s is not None]
        if len(spans) < 2:
            continue
        spans.sort(key=lambda s: (s.start_ms, s.trace_id))
        overlap_start = max(s.start_ms for s in spans)
        overlap_end = min(s.end_ms if s.end_ms is not None else s.start_ms
                          for s in spans)
        concurrent = overlap_end > overlap_start
        fault_ids = sorted({f for s in spans for f in s.faults})
        entries.append({
            "anomaly": kind,
            "warehouse": warehouse,
            "district": district,
            "order_id": order_id,
            "traces": [_span_entry(s) for s in spans],
            "concurrent": concurrent,
            "overlap_ms": max(0.0, overlap_end - overlap_start),
            "fault_windows": fault_ids,
        })
    return entries


def join_anomalies(report, tracer: Tracer) -> Dict[str, object]:
    """Link each Adya anomaly in a :class:`TPCCAnomalyReport` to its traces.

    Returns a JSON-ready dict: one entry per anomalous (warehouse,
    district, order id) triple, listing every claimant transaction's trace
    (interval, site, outcome, overlapping fault-window ids), whether the
    claimants ran concurrently, and the fault windows implicated.
    """
    duplicate_claims = [
        (key, report.claimants[key]) for key in report.duplicate_order_ids
        if len(report.claimants.get(key, ())) > 1
    ]
    double_billings = [
        (key, report.billings[key]) for key in report.double_deliveries
        if len(report.billings.get(key, ())) > 1
    ]
    entries = (_join_group("duplicate-order-id", duplicate_claims, tracer)
               + _join_group("double-delivery", double_billings, tracer))
    windows = {w.window_id: w for w in tracer.fault_windows}
    implicated = sorted({wid for e in entries for wid in e["fault_windows"]})
    return {
        "entries": entries,
        "anomalies_joined": len(entries),
        "anomalies_concurrent": sum(1 for e in entries if e["concurrent"]),
        "anomalies_under_fault": sum(1 for e in entries
                                     if e["fault_windows"]),
        "implicated_faults": [windows[wid].as_dict() for wid in implicated
                              if wid in windows],
    }
