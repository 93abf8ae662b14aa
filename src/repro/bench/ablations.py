"""Ablation experiments beyond the paper's figures.

DESIGN.md calls out three design choices whose effect is worth isolating:

* the anti-entropy interval — how quickly writes become visible at remote
  clusters versus how much background work the gossip adds,
* stickiness — how many read-your-writes violations a session observes with
  and without client affinity when its home datacenter becomes unreachable,
* the coordinated baselines — a side-by-side latency table for master,
  two-phase locking, and quorum operation on the same geo-replicated
  deployment (the paper reports 2PL and quorums qualitatively).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.bench.runner import RunConfig, run_workload
from repro.hat.protocols import MASTER, QUORUM, READ_COMMITTED, TWO_PHASE_LOCKING
from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction
from repro.replication.antientropy import AntiEntropyConfig
from repro.workloads.ycsb import YCSBConfig


# ---------------------------------------------------------------------------
# Anti-entropy interval sweep
# ---------------------------------------------------------------------------

@dataclass
class VisibilityPoint:
    """Result of one anti-entropy interval setting."""

    interval_ms: float
    #: None when no write became visible during the observation window.
    mean_visibility_ms: Optional[float]
    anti_entropy_messages: int
    versions_pushed: int


def anti_entropy_visibility(
    intervals_ms: Sequence[float] = (5.0, 20.0, 100.0, 500.0),
    writes: int = 30,
    seed: int = 0,
) -> List[VisibilityPoint]:
    """Measure remote-read visibility lag versus anti-entropy interval.

    A client in Virginia writes a fresh key; a client in Oregon polls until
    it observes the value.  The visibility lag is the simulated time between
    the committed write and the first successful remote read.
    """
    points: List[VisibilityPoint] = []
    for interval in intervals_ms:
        testbed = build_testbed(Scenario(
            regions=["VA", "OR"], servers_per_cluster=2, seed=seed,
            anti_entropy=AntiEntropyConfig(interval_ms=interval)))
        writer = testbed.make_client("eventual",
                                     home_cluster=testbed.config.cluster_names[0])
        reader = testbed.make_client("eventual",
                                     home_cluster=testbed.config.cluster_names[1])
        lags: List[float] = []
        for index in range(writes):
            key = f"visibility-{interval}-{index}"
            result = testbed.env.run_until_complete(writer.execute(
                Transaction([Operation.write(key, index)])
            ))
            committed_at = result.end_ms
            observed_at: Optional[float] = None
            for _ in range(200):
                read = testbed.env.run_until_complete(reader.execute(
                    Transaction([Operation.read(key)])
                ))
                if read.value_read(key) is not None:
                    observed_at = read.end_ms
                    break
                testbed.run(interval / 2.0)
            if observed_at is not None:
                lags.append(observed_at - committed_at)
        pushed = sum(s.anti_entropy.stats.versions_pushed for s in testbed.server_list())
        messages = sum(s.anti_entropy.stats.messages for s in testbed.server_list())
        points.append(VisibilityPoint(
            interval_ms=interval,
            mean_visibility_ms=sum(lags) / len(lags) if lags else None,
            anti_entropy_messages=messages,
            versions_pushed=pushed,
        ))
    return points


# ---------------------------------------------------------------------------
# Stickiness ablation
# ---------------------------------------------------------------------------

@dataclass
class StickinessResult:
    """Read-your-writes outcomes with and without stickiness."""

    sticky_violations: int
    non_sticky_violations: int
    sessions: int


def stickiness_ablation(sessions: int = 10, seed: int = 0) -> StickinessResult:
    """Count unrepaired read-your-writes violations with/without stickiness.

    Each session writes a key in its home datacenter, the home datacenter's
    servers then become unreachable, and the session reads the key back (now
    necessarily served by the other, stale datacenter).
    """
    def run(sticky: bool) -> int:
        violations = 0
        for index in range(sessions):
            testbed = build_testbed(Scenario(regions=["VA", "OR"],
                                             servers_per_cluster=2,
                                             seed=seed + index))
            home = testbed.config.cluster_names[0]
            session = testbed.make_client(f"{READ_COMMITTED}+ryw",
                                          home_cluster=home, sticky=sticky)
            key = f"session-{index}"
            testbed.env.run_until_complete(session.execute(
                Transaction([Operation.write(key, "mine")])
            ))
            home_servers = set(testbed.config.cluster(home).servers)
            testbed.network.partitions.partition_by(
                lambda site, dead=home_servers: None if site in dead else "rest"
            )
            testbed.env.run_until_complete(session.execute(
                Transaction([Operation.read(key)])
            ))
            violations += session.violations()
        return violations

    return StickinessResult(
        sticky_violations=run(sticky=True),
        non_sticky_violations=run(sticky=False),
        sessions=sessions,
    )


# ---------------------------------------------------------------------------
# Coordinated baselines
# ---------------------------------------------------------------------------

@dataclass
class BaselinePoint:
    """Latency/throughput of one coordinated (non-HAT) configuration."""

    protocol: str
    #: None when the run committed nothing (no latency samples).
    mean_latency_ms: Optional[float]
    p95_latency_ms: Optional[float]
    throughput_txn_s: float
    abort_rate: float


def coordinated_baselines(
    protocols: Sequence[str] = (MASTER, TWO_PHASE_LOCKING, QUORUM),
    clients_per_cluster: int = 2,
    duration_ms: float = 1500.0,
    seed: int = 0,
) -> List[BaselinePoint]:
    """Latency of the coordinated protocols on Virginia + Oregon."""
    points = []
    for protocol in protocols:
        stats = run_workload(RunConfig(
            protocol=protocol,
            scenario=Scenario(regions=["VA", "OR"], servers_per_cluster=3,
                              seed=seed),
            workload=YCSBConfig(operations_per_transaction=4, key_count=5000),
            clients_per_cluster=clients_per_cluster,
            duration_ms=duration_ms,
            seed=seed,
        ))
        points.append(BaselinePoint(
            protocol=stats.protocol,
            mean_latency_ms=stats.latency.mean,
            p95_latency_ms=stats.latency.p95,
            throughput_txn_s=stats.throughput_txn_s,
            abort_rate=stats.abort_rate,
        ))
    return points
