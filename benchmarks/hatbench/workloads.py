"""The six workloads: what each sets up, runs, and checks.

Sizes are constants (never auto-calibrated), so every sim-clock metric and
exact count compares byte-for-byte across commits.  ``scale`` multiplies
every simulated duration for quick local runs; a ``scale != 1`` result is
marked not comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.adya.history import HistoryRecorder
from repro.bench.runner import RunConfig, run_workload
from repro.chaos import (
    CampaignPhase,
    Nemesis,
    TimelineTelemetry,
    canonical_partition_campaign,
)
from repro.hat.testbed import Scenario, Testbed, build_testbed
from repro.loadgen.arrivals import PoissonArrivals
from repro.loadgen.engine import OpenLoopConfig, run_open_loop
from repro.workloads.base import run_preload
from repro.workloads.tpcc_audit import audit_tpcc_history
from repro.workloads.tpcc_driver import TPCCDriverFactory
from repro.workloads.ycsb import YCSBConfig

#: (check name, passed, detail) — every failed check fails the run.
Check = Tuple[str, bool, str]

#: Below this many committed samples a p99 has fewer than ten samples beyond
#: it; every workload clears it at scale 1.
MIN_P99_SAMPLES = 1_000
#: Keys compared across replicas by the convergence check.
CONVERGENCE_SAMPLE = 500


@dataclass
class Outcome:
    """What the measured run reported, in one shape for both load drivers."""

    committed: int
    aborted: int
    operations: int
    sim_committed_per_s: float
    sim_latency_p50_ms: float
    sim_latency_p99_ms: float
    latency_samples: int
    # Open-loop only (zero in closed loop, where attempted == completed).
    offered: int = 0
    shed: int = 0
    queue_peak: int = 0
    backlog_final: int = 0
    retries: int = 0

    @property
    def failed(self) -> int:
        return self.aborted + self.shed + self.backlog_final

    @property
    def attempted(self) -> int:
        return self.committed + self.failed


@dataclass
class Prepared:
    """A workload after set-up: ready to run the measured interval."""

    testbed: Testbed
    #: The measured run.
    execute: Callable[[], Outcome]
    #: Output checks, run after the measured interval.
    check: Callable[[Outcome], List[Check]]
    #: Work after the run that still belongs to the measured interval.
    audit: Optional[Callable[[], object]] = None
    nemesis: Optional[Nemesis] = None
    recorder: Optional[HistoryRecorder] = None


def _closed_outcome(stats) -> Outcome:
    return Outcome(
        committed=stats.committed, aborted=stats.aborted,
        operations=stats.operations,
        sim_committed_per_s=stats.throughput_txn_s,
        sim_latency_p50_ms=stats.latency.p50,
        sim_latency_p99_ms=stats.latency.p99,
        latency_samples=stats.latency.count)


def _common_checks(outcome: Outcome, scale: float) -> List[Check]:
    checks = [
        ("committed_positive", outcome.committed > 0,
         f"committed={outcome.committed}"),
        ("no_operation_failed", outcome.failed == 0,
         f"aborted={outcome.aborted} shed={outcome.shed} "
         f"backlog_final={outcome.backlog_final}"),
    ]
    if scale == 1.0:
        checks.append(("p99_has_1000_samples",
                       outcome.latency_samples >= MIN_P99_SAMPLES,
                       f"latency_samples={outcome.latency_samples}"))
    return checks


def _replicas_converged(testbed: Testbed) -> Check:
    """Every sampled key's replicas hold the same latest version."""
    keys = sorted({key for server in testbed.servers.values()
                   for key in server.store.data.keys()})
    stride = max(1, len(keys) // CONVERGENCE_SAMPLE)
    sample = keys[::stride]
    diverged = [
        key for key in sample
        if len({testbed.servers[replica].store.data.latest(key).timestamp
                for replica in testbed.config.replicas_for(key)}) != 1]
    return ("replicas_converged", bool(sample) and not diverged,
            f"{len(sample)} of {len(keys)} keys sampled, "
            f"{len(diverged)} diverged")


def _ycsb_closed(protocol: str, regions: Sequence[str], clients: int,
                 sim_ms: float, write_proportion: float = 0.5,
                 converge: bool = False) -> Callable[..., Prepared]:
    def prepare(seed: int, scale: float, spans, obs: bool) -> Prepared:
        scenario = Scenario(regions=list(regions), servers_per_cluster=2,
                            seed=seed)
        workload = YCSBConfig(write_proportion=write_proportion)
        with spans.span("setup.build_testbed"):
            testbed = build_testbed(scenario)
        with spans.span("setup.preload"):
            run_preload(testbed, workload)
        config = RunConfig(protocol=protocol, scenario=scenario,
                           workload=workload, clients_per_cluster=clients,
                           duration_ms=sim_ms * scale, warmup_ms=0.0,
                           seed=seed)

        def execute() -> Outcome:
            return _closed_outcome(
                run_workload(config, testbed=testbed, preload=False))

        def check(outcome: Outcome) -> List[Check]:
            checks = _common_checks(outcome, scale)
            if converge:
                checks.append(_replicas_converged(testbed))
            return checks

        return Prepared(testbed=testbed, execute=execute, check=check)
    return prepare


def _prepare_tpcc(seed: int, scale: float, spans, obs: bool) -> Prepared:
    scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2, seed=seed)
    factory = TPCCDriverFactory()
    recorder = HistoryRecorder()
    with spans.span("setup.build_testbed"):
        testbed = build_testbed(scenario)
    with spans.span("setup.preload"):
        run_preload(testbed, factory)
    config = RunConfig(protocol="read-committed", scenario=scenario,
                       workload=factory, clients_per_cluster=2,
                       duration_ms=12_000.0 * scale, warmup_ms=0.0, seed=seed)

    def execute() -> Outcome:
        return _closed_outcome(run_workload(
            config, testbed=testbed, recorder=recorder, preload=False))

    def audit():
        return audit_tpcc_history(recorder.build())

    def check(outcome: Outcome) -> List[Check]:
        by_type = factory.mirror.committed_by_type
        missing = [t for t in ("new-order", "payment", "order-status",
                               "delivery", "stock-level")
                   if by_type.get(t, 0) == 0]
        return _common_checks(outcome, scale) + [
            ("tpcc_all_five_types_committed", not missing,
             f"committed_by_type={dict(sorted(by_type.items()))}")]

    return Prepared(testbed=testbed, execute=execute, audit=audit,
                    check=check, recorder=recorder)


def _prepare_openloop(seed: int, scale: float, spans, obs: bool) -> Prepared:
    regions = ["VA", "OR"]
    scenario = Scenario(regions=regions, servers_per_cluster=2, seed=seed,
                        tracing=obs, metrics=obs)
    workload = YCSBConfig()
    with spans.span("setup.build_testbed"):
        testbed = build_testbed(scenario)
    with spans.span("setup.preload"):
        run_preload(testbed, workload)
    with spans.span("setup.install_campaign"):
        campaign = canonical_partition_campaign(
            regions, baseline_ms=3_000.0 * scale,
            partition_ms=6_000.0 * scale, recovery_ms=3_000.0 * scale)
        nemesis = Nemesis(testbed, campaign)
        nemesis.install()
    run_start_ms = testbed.env.now
    telemetry = TimelineTelemetry(window_ms=500.0 * scale)
    config = OpenLoopConfig(
        protocol="read-committed", scenario=scenario,
        arrivals=PoissonArrivals(300.0), workload=workload,
        sessions_per_cluster=8, duration_ms=campaign.duration_ms, seed=seed)

    def execute() -> Outcome:
        stats = run_open_loop(config, testbed=testbed, telemetry=telemetry,
                              preload=False)
        return Outcome(
            committed=stats.committed, aborted=stats.aborted,
            operations=stats.operations,
            sim_committed_per_s=stats.committed_rate_s,
            sim_latency_p50_ms=stats.latency.p50,
            sim_latency_p99_ms=stats.latency.p99,
            latency_samples=stats.latency.count,
            offered=stats.offered, shed=stats.shed,
            queue_peak=stats.queue_peak, backlog_final=stats.backlog_final,
            retries=stats.retries)

    def check(outcome: Outcome) -> List[Check]:
        partition = next(p for p in campaign.phases if p.name == "partition")
        shifted = CampaignPhase(partition.name,
                                partition.start_ms + run_start_ms,
                                partition.end_ms + run_start_ms)
        during: Dict[str, int] = {
            group: sum(w.committed for w in timeline.phase_windows(shifted))
            for group, timeline in telemetry.build().items()}
        accounted = (outcome.committed + outcome.aborted + outcome.shed
                     + outcome.backlog_final)
        return _common_checks(outcome, scale) + [
            ("openloop_conservation", outcome.offered == accounted,
             f"offered={outcome.offered} accounted={accounted}"),
            ("openloop_backlog_drained", outcome.backlog_final == 0,
             f"backlog_final={outcome.backlog_final}"),
            ("commits_in_both_regions_during_partition",
             sorted(during) == sorted(regions) and min(during.values()) > 0,
             f"committed_during_partition={dict(sorted(during.items()))}"),
        ]

    return Prepared(testbed=testbed, execute=execute, check=check,
                    nemesis=nemesis)


_TWO = ("VA", "OR")
_GEO5 = ("VA", "CA", "OR", "IR", "SI")

#: name -> ``prepare(seed, scale, spans, obs)`` -> Prepared.  ``spans`` is the
#: host-time span log; ``obs`` turns tracing+metrics on (spec.OBS_ON).
WORKLOADS: Dict[str, Callable[..., Prepared]] = {
    "ycsb_eventual_2x2":
        _ycsb_closed("eventual", _TWO, 4, 18_000.0, converge=True),
    "ycsb_mav_2x2": _ycsb_closed("mav", _TWO, 4, 8_000.0),
    "ycsb_causal_2x2": _ycsb_closed("causal", _TWO, 4, 4_000.0),
    "ycsb_master_geo5_read95":
        _ycsb_closed("master", _GEO5, 2, 1_500_000.0, write_proportion=0.05),
    "tpcc_rc_2x2_audit": _prepare_tpcc,
    "openloop_rc_partition_obs": _prepare_openloop,
}
