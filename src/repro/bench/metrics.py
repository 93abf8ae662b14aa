"""Latency and throughput aggregation for benchmark runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


def _percentile(ordered: List[float], q: float) -> float:
    """Linear-interpolation percentile over pre-sorted data: the ``q``-th
    percentile lies ``(len - 1) * q / 100`` of the way along the sorted
    samples (the "linear" / "inclusive" definition of ``statistics.quantiles``).
    """
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    if lower >= len(ordered) - 1:
        return ordered[-1]
    fraction = position - lower
    return ordered[lower] + (ordered[lower + 1] - ordered[lower]) * fraction


@dataclass
class LatencySummary:
    """Summary statistics over a set of latency samples (milliseconds).

    An empty sample set yields ``None`` statistics rather than ``NaN``:
    ``NaN`` is not valid JSON, so a single empty window used to corrupt
    every serialized benchmark report that contained one.
    """

    count: int
    mean: Optional[float]
    p50: Optional[float]
    p95: Optional[float]
    p99: Optional[float]
    maximum: Optional[float]

    @classmethod
    def empty(cls) -> "LatencySummary":
        return cls(count=0, mean=None, p50=None,
                   p95=None, p99=None, maximum=None)

    @classmethod
    def from_samples(cls, samples: List[float]) -> "LatencySummary":
        if not samples:
            return cls.empty()
        ordered = sorted(map(float, samples))
        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=_percentile(ordered, 50),
            p95=_percentile(ordered, 95),
            p99=_percentile(ordered, 99),
            maximum=ordered[-1],
        )

    @classmethod
    def from_digest(cls, digest) -> "LatencySummary":
        """Summarize a latency histogram (duck-typed: anything with
        ``count``/``mean``/``maximum`` and ``quantile(q)``, i.e. a
        :class:`~repro.loadgen.sketch.LatencyDigest`): each percentile to
        within its bucket, count, mean and maximum exact.

        Keeps the ``None``-for-empty contract: an empty digest summarizes
        to all-``None`` statistics, exactly like an empty sample list.
        """
        if digest is None or digest.count == 0:
            return cls.empty()
        return cls(
            count=int(digest.count),
            mean=float(digest.mean),
            p50=float(digest.quantile(0.5)),
            p95=float(digest.quantile(0.95)),
            p99=float(digest.quantile(0.99)),
            maximum=float(digest.maximum),
        )

    def as_dict(self) -> Dict[str, Optional[float]]:
        """A JSON-safe plain dict (``None`` marks absent statistics)."""
        return {"count": self.count, "mean": self.mean, "p50": self.p50,
                "p95": self.p95, "p99": self.p99, "maximum": self.maximum}


@dataclass
class RunStats:
    """Outcome of one workload run on one testbed."""

    protocol: str
    clients: int
    duration_ms: float
    committed: int
    aborted: int
    operations: int
    latency: LatencySummary
    #: committed transactions per second of simulated time.
    throughput_txn_s: float
    #: operations per second of simulated time.
    throughput_ops_s: float
    #: fraction of transaction RPCs that left the client's datacenter.
    remote_rpc_fraction: float = 0.0

    @property
    def abort_rate(self) -> float:
        total = self.committed + self.aborted
        return self.aborted / total if total else 0.0


class RunTally:
    """Running totals of one run, each result folded in as it completes.

    Results finishing before ``measure_start_ms`` (the end of the warm-up)
    are left out, so cold-start effects (empty stores, empty anti-entropy
    queues) do not skew the numbers; committed latencies are exact samples.
    """

    def __init__(self, measure_start_ms: float):
        self.measure_start_ms = measure_start_ms
        self.aborted = self.operations = self.remote = 0
        self.latencies: List[float] = []

    def add(self, result) -> None:
        """Fold in one :class:`~repro.hat.transaction.TransactionResult`."""
        if result.end_ms >= self.measure_start_ms:
            self.remote += result.remote_rpcs
            if result.committed:
                self.latencies.append(result.latency_ms)
                self.operations += len(result.reads) + len(result.writes)
            else:
                self.aborted += 1

    def summarize(self, protocol: str, clients: int, duration_ms: float,
                  warmup_ms: float = 0.0) -> RunStats:
        committed = len(self.latencies)
        effective_ms = max(duration_ms - warmup_ms, 1e-9)
        return RunStats(
            protocol=protocol,
            clients=clients,
            duration_ms=effective_ms,
            committed=committed,
            aborted=self.aborted,
            operations=self.operations,
            latency=LatencySummary.from_samples(self.latencies),
            throughput_txn_s=1000.0 * committed / effective_ms,
            throughput_ops_s=1000.0 * self.operations / effective_ms,
            remote_rpc_fraction=self.remote / max(1, self.operations),
        )
