"""Critical-path latency decomposition.

Every traced transaction's arrival-to-commit latency is decomposed into
exclusive, non-overlapping segments:

``lock_wait``  time blocked behind a lock queue (2PL grants),
``service``    server handler execution,
``queueing``   admission-queue wait at a server before a worker picked it up,
``retry``      RPCs that timed out (the client burned this time waiting for a
               reply a partition dropped),
``rtt``        network round-trip on successful RPCs (minus the server-side
               time above, which the RPC span carries as attributes),
``client``     everything else: client-side compute, session-layer logic,
               and think gaps between operations.

The decomposition is an interval sweep: each span kind claims its interval
at a fixed priority (lock-wait > service > queueing > retry > rtt), the
highest active priority wins each elementary interval, and whatever nothing
claims is ``client``.  By construction the six buckets sum *exactly* to the
transaction's latency — concurrent RPCs (quorum fan-out) are not double
counted, and server time nested inside an RPC attributes to the server, not
the wire.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs.trace import Span

__all__ = ["SEGMENTS", "decompose", "aggregate_stack", "percentile"]

#: Bucket names in display order.
SEGMENTS = ("queueing", "rtt", "service", "retry", "lock_wait", "client")

#: Segment -> priority.  Higher priority wins overlaps.
_PRIORITY = {
    "lock_wait": 5,
    "service": 4,
    "queueing": 3,
    "retry": 2,
    "rtt": 1,
}


def _intervals_for(span: Span) -> List[Tuple[float, float, str]]:
    """The (start, end, segment) claims one child span contributes (a
    served RPC span carries its server's queue wait and service)."""
    end = span.end_ms if span.end_ms is not None else span.start_ms
    if span.kind == "lock":
        return [(span.start_ms, end, "lock_wait")]
    attrs = span.attrs
    if span.kind == "server":
        arrival, done, claims = span.start_ms, end, []
    elif span.kind == "rpc":
        claims = [(span.start_ms, end,
                   "retry" if span.status == "timeout" else "rtt")]
        arrival = attrs.get("arrival_ms")
        if arrival is None:  # no server took it up
            return claims
        done = arrival + attrs["queue_wait_ms"] + attrs["service_ms"]
    else:
        return []
    service_ms = attrs.get("service_ms", 0.0)
    queue_wait = attrs.get("queue_wait_ms", 0.0)
    if service_ms:
        claims.append((done - service_ms, done, "service"))
    if queue_wait:
        claims.append((arrival, arrival + queue_wait, "queueing"))
    return claims


def decompose(root: Span, children: Iterable[Span]) -> Dict[str, float]:
    """Split ``root``'s latency into the :data:`SEGMENTS` buckets.

    ``children`` are the other spans of the same trace (any order; spans
    outside the root's interval are clipped to it).
    """
    start, end = root.start_ms, root.end_ms
    totals = dict.fromkeys(SEGMENTS, 0.0)
    if end is None or end <= start:
        return totals
    claims: List[Tuple[float, float, str, int]] = []
    for span in children:
        for lo, hi, segment in _intervals_for(span):
            lo, hi = max(lo, start), min(hi, end)
            if hi > lo:
                claims.append((lo, hi, segment, _PRIORITY[segment]))
    points = sorted({start, end, *(c[0] for c in claims),
                     *(c[1] for c in claims)})
    for lo, hi in zip(points, points[1:]):
        best, best_priority = "client", 0
        for c_lo, c_hi, segment, priority in claims:
            if c_lo <= lo and c_hi >= hi and priority > best_priority:
                best, best_priority = segment, priority
        totals[best] += hi - lo
    return totals


def percentile(values: Sequence[float], fraction: float) -> float:
    """Sorted ``values`` at 0-based rank ``min(n - 1, int(fraction * n))``,
    no interpolation: one rank above nearest-rank where ``fraction * n`` is
    a whole number above 0, so the p99 of 1..100 is 100 (nearest-rank: 99)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def aggregate_stack(breakdowns: Sequence[Tuple[float, Dict[str, float]]]
                    ) -> Dict[str, object]:
    """Aggregate per-transaction (latency, breakdown) pairs for one stack.

    Reports the mean breakdown over all transactions plus the p99
    transaction's latency and its individual breakdown — the "why is the
    tail slow" answer the window-level artifacts cannot give.
    """
    if not breakdowns:
        return {"transactions": 0, "mean_latency_ms": 0.0,
                "p99_latency_ms": 0.0,
                "mean_breakdown_ms": dict.fromkeys(SEGMENTS, 0.0),
                "p99_breakdown_ms": dict.fromkeys(SEGMENTS, 0.0)}
    latencies = [latency for latency, _ in breakdowns]
    count = len(breakdowns)
    mean = {name: sum(b[name] for _, b in breakdowns) / count
            for name in SEGMENTS}
    p99_latency = percentile(latencies, 0.99)
    # The p99 transaction: the first one nearest the p99 latency.
    _, p99_breakdown = min(breakdowns,
                           key=lambda row: abs(row[0] - p99_latency))
    return {
        "transactions": count,
        "mean_latency_ms": sum(latencies) / count,
        "p99_latency_ms": p99_latency,
        "mean_breakdown_ms": mean,
        "p99_breakdown_ms": dict(p99_breakdown),
    }
