"""Experiment definitions: one function per figure of the evaluation.

Each figure function sweeps the same parameter the paper sweeps and returns
a list of :class:`ExperimentPoint` — protocol, x-value, throughput, latency —
which the benchmark scripts print as the figure's data series.  The default
sweeps are small enough for CI; the shapes (who wins, by what factor, where
the crossovers are) are what the reproduction targets, not absolute numbers,
because the substrate is a simulator rather than EC2 hardware.

Every artifact beyond the figures is the same methodology plus a fault
campaign.  Each states its parameters once, as a frozen ``*Params``
dataclass: ``x_experiment(protocols=..., jobs=..., **overrides)`` builds it
from keyword overrides and hands it whole to the per-protocol worker.  A
parameter is a field only while two doors pass it two values (``python -m
repro.bench`` at ``--quick`` and ``--full``, and the artifact sweeps the
tests pin); every other is a constant, on the params class where a shared
leg reads it, else at its one use.

Every sweep accepts ``jobs``: each swept point is an independent seeded
simulation, so with ``jobs=N`` the points fan out across a process pool (see
:mod:`repro.bench.parallel`) and merge in deterministic order — parallel
results are bit-identical to sequential ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.adya.history import HistoryRecorder
from repro.adya.phenomena import detect
from repro.cluster.node import ServiceCostModel
from repro.bench.metrics import RunStats
from repro.bench.parallel import run_configs, run_tasks
from repro.bench.runner import RunConfig, run_workload
from repro.chaos.campaign import (
    Campaign,
    CampaignPhase,
    canonical_elasticity_campaign,
    canonical_partition_campaign,
    canonical_staleness_campaign,
)
from repro.membership.coordinator import RebalanceRecord
from repro.chaos.nemesis import NarrationEntry, Nemesis
from repro.chaos.telemetry import (
    GroupTimeline,
    TimelineTelemetry,
    WindowStats,
    sum_groups,
)
from repro.errors import ReproError
from repro.hat.protocols import EVENTUAL, MASTER, MAV, QUORUM, READ_COMMITTED
from repro.hat.testbed import FIVE_REGION_DEPLOYMENT, Scenario, Testbed, build_testbed
from repro.overload import RetryPolicy
from repro.replication.antientropy import AntiEntropyConfig
from repro.obs.critical_path import aggregate_stack, decompose
from repro.obs.export import chrome_trace
from repro.obs.metrics import phase_tiles
from repro.obs.provenance import join_anomalies
from repro.loadgen import (
    OpenLoopConfig,
    OpenLoopStats,
    PoissonArrivals,
    RampArrivals,
    run_open_loop,
)
from repro.workloads.base import run_preload
from repro.workloads.tpcc_audit import TPCCAnomalyReport, audit_tpcc_history
from repro.workloads.tpcc_driver import TPCCDriverFactory, contended_tpcc_config
from repro.workloads.ycsb import YCSBConfig

#: The four configurations plotted in Figures 3-6.
FIGURE_PROTOCOLS = (EVENTUAL, READ_COMMITTED, MAV, MASTER)

#: Guarantee stacks for the composite sweep: each single-guarantee HAT base
#: next to the paper's strongest sticky-available combinations (Section 5.3).
COMPOSITE_SWEEP_PROTOCOLS = (EVENTUAL, READ_COMMITTED, MAV, "causal", "mav+causal")

#: Protocols swept by the availability experiment: every HAT class of
#: Table 3 against the unavailable baselines it argues against.
AVAILABILITY_PROTOCOLS = (EVENTUAL, READ_COMMITTED, MAV, "causal",
                          "mav+causal", MASTER, QUORUM)

#: Protocols swept by the TPC-C simulation: every HAT base, the strongest
#: sticky-available stack, and the coordinated baselines whose anomaly
#: counts the Section 6.2 analysis predicts to differ (``lock-sr`` is the
#: serializable 2PL baseline).
TPCC_SIM_PROTOCOLS = (EVENTUAL, READ_COMMITTED, MAV, "causal",
                      MASTER, "lock-sr")

#: Protocols swept by the elasticity experiment: the registry's HAT classes
#: against the coordinated baselines that stall when a partition overlaps a
#: rebalance.
ELASTICITY_PROTOCOLS = (EVENTUAL, READ_COMMITTED, MAV, "causal",
                        "mav+causal", MASTER, QUORUM)

#: Anomalies counted on elasticity histories: dirty writes, aborted reads,
#: and eventual's signature Item-Many-Preceders.
ELASTICITY_ANOMALIES = ("G0", "G1a", "IMP")

#: Protocols swept by the saturation experiment: the registry's HAT stacks
#: against the coordinated baselines whose longer commit paths pull the
#: knee down (``lock-sr`` is the serializable 2PL baseline).
SATURATION_PROTOCOLS = (EVENTUAL, "causal", "mav+causal", MASTER, "lock-sr")

#: Protocols swept by the staleness observatory: the bare HAT base whose
#: recency Section 2.3 concedes nothing about, the two strongest
#: sticky-available stacks, and the mastered baseline whose asynchronous
#: replication is the classic "stale replicas" configuration.
STALENESS_PROTOCOLS = (EVENTUAL, "causal", "mav+causal", MASTER)

#: The recency metrics the staleness artifact reports.
RECENCY_METRICS = ("t_visibility_ms", "k_staleness_versions")

#: Quantile grid for run-level recency CDFs.
STALENESS_CDF_GRID = tuple(i / 20.0 for i in range(1, 20)) + (0.99,)

#: Protocols swept by the metastability experiment: the HAT base, the
#: strongest sticky-available stack, and the two coordinated baselines
#: whose partition behaviour (fail-fast master checks, lock deadlines)
#: feeds the retry storm differently.
METASTABILITY_PROTOCOLS = (EVENTUAL, "causal", MASTER, "lock-sr")

#: Post-heal goodput at or below this fraction of the healthy baseline is
#: *pinned*: the trigger is gone, the load never exceeded healthy capacity,
#: and the system still cannot climb back — the metastable signature.
METASTABILITY_PIN_FRACTION = 0.7

#: The trailing mean committed rate must reach this fraction of the healthy
#: baseline for the run to count as recovered.
METASTABILITY_RECOVERY_FRACTION = 0.9

#: Protocols swept by the trace experiment: one representative of each
#: latency shape — the bare HAT base, the strongest sticky-available stack,
#: the mastered baseline (remote RTT dominated), and serializable 2PL
#: (lock-wait dominated).
TRACE_PROTOCOLS = (EVENTUAL, "causal", MASTER, "lock-sr")

#: Timeout discipline shared by every chaos leg: bound how long a client
#: wedges behind a reply the partition dropped — with the default 10 s
#: deadline a client mid-RPC at partition onset would stay dark for the
#: entire campaign.  The 2PL client waits on its own lock deadline, so
#: lock protocols get the same bound (``RetryPolicy.client_kwargs`` applies
#: it only to them).
CHAOS_RETRY = RetryPolicy(rpc_timeout_ms=2_000.0, lock_timeout_ms=2_000.0)


# ---------------------------------------------------------------------------
# The run every artifact shares: a seeded deployment, optionally under a
# nemesis campaign, driven closed-loop or open-loop
# ---------------------------------------------------------------------------

class _Deployment:
    """What every artifact's params start from, constants all: Virginia +
    Oregon, two servers and two closed-loop clients per cluster, seed 0."""

    regions: ClassVar[Tuple[str, ...]] = ("VA", "OR")
    servers_per_cluster: ClassVar[int] = 2
    clients_per_cluster: ClassVar[int] = 2
    seed: ClassVar[int] = 0


def _scenario(params: _Deployment, **extra) -> Scenario:
    """The deployment an artifact's params describe, plus its own extras."""
    return Scenario(regions=list(params.regions),
                    servers_per_cluster=params.servers_per_cluster,
                    seed=params.seed, **extra)


def _partition_campaign(params) -> Campaign:
    """The canonical baseline -> region partition -> recovery campaign."""
    return canonical_partition_campaign(
        list(params.regions), baseline_ms=params.baseline_ms,
        partition_ms=params.partition_ms, recovery_ms=params.recovery_ms)


def _shifted(campaign: Campaign, offset_ms: float) -> Campaign:
    """``campaign`` with its phases on the clock of a run that starts at
    ``offset_ms`` (its faults fire relative to that start)."""
    return replace(campaign, phases=tuple(
        CampaignPhase(phase.name, phase.start_ms + offset_ms,
                      phase.end_ms + offset_ms) for phase in campaign.phases))


def _install(testbed: Testbed,
             campaign: Optional[Campaign]) -> List[NarrationEntry]:
    """Arm ``campaign`` on the testbed's clock (None = a healthy run).

    Returns the log the nemesis appends to as its faults fire: what it
    actually did, stamped with simulated fire times.
    """
    if campaign is None:
        return []
    nemesis = Nemesis(testbed, campaign)
    nemesis.install()
    return nemesis.log


def _closed_loop_leg(protocol: str, testbed: Testbed,
                     campaign: Optional[Campaign], workload: Any, params, *,
                     duration_ms: Optional[float] = None,
                     retry: RetryPolicy = RetryPolicy(),
                     recorder: Optional[object] = None,
                     telemetry: Optional[TimelineTelemetry] = None,
                     preload: bool = True
                     ) -> Tuple[RunStats, List[NarrationEntry]]:
    """The chaos leg every closed-loop worker shares.

    Installs ``campaign`` through a nemesis, then runs
    ``params.clients_per_cluster`` closed-loop clients per cluster with no
    warm-up for the campaign's duration (``duration_ms`` when the run is
    healthy), and returns the run's stats with the nemesis narration.
    """
    narration = _install(testbed, campaign)
    config = RunConfig(
        protocol=protocol,
        scenario=testbed.scenario,
        workload=workload,
        clients_per_cluster=params.clients_per_cluster,
        duration_ms=(duration_ms if campaign is None
                     else campaign.duration_ms),
        warmup_ms=0.0,
        seed=params.seed,
        retry=retry,
    )
    stats = run_workload(config, testbed=testbed, recorder=recorder,
                         telemetry=telemetry, preload=preload)
    return stats, list(narration)


def _open_loop_leg(protocol: str, testbed: Testbed,
                   campaign: Optional[Campaign], arrivals, workload: Any,
                   params, *, duration_ms: Optional[float] = None,
                   seed: Optional[int] = None,
                   retry: RetryPolicy = RetryPolicy(),
                   telemetry: Optional[TimelineTelemetry] = None
                   ) -> Tuple[OpenLoopStats, List[NarrationEntry]]:
    """The open-loop sibling of :func:`_closed_loop_leg`.

    Load is the per-cluster ``arrivals`` process over ``params.users``
    logical users and ``params.sessions_per_cluster`` pooled sessions;
    ``seed`` overrides ``params.seed`` for the arrival streams only.
    """
    narration = _install(testbed, campaign)
    stats = run_open_loop(
        OpenLoopConfig(
            protocol=protocol,
            scenario=testbed.scenario,
            arrivals=arrivals,
            workload=workload,
            users=params.users,
            sessions_per_cluster=params.sessions_per_cluster,
            duration_ms=(duration_ms if campaign is None
                         else campaign.duration_ms),
            seed=params.seed if seed is None else seed,
            retry=retry,
        ),
        testbed=testbed, telemetry=telemetry)
    return stats, list(narration)


# ---------------------------------------------------------------------------
# Figures 3-6 and the composite sweep: protocols x one swept YCSB parameter
# ---------------------------------------------------------------------------

@dataclass
class ExperimentPoint:
    """One (protocol, x) data point of a figure."""

    figure: str
    protocol: str
    x_label: str
    x_value: float
    throughput_txn_s: float
    throughput_ops_s: float
    #: None when the run committed nothing (no latency samples).
    mean_latency_ms: Optional[float]
    p95_latency_ms: Optional[float]
    committed: int
    aborted: int
    extras: Dict[str, float] = field(default_factory=dict)


def _figure_sweep(x_label: str, protocols: Sequence[str], x_values: Sequence,
                  point: Callable[[Any], tuple], duration_ms: float,
                  jobs: Optional[int]) -> List[ExperimentPoint]:
    """The double loop every figure is: protocols x swept values.

    ``point(x)`` says what one swept value means for the run, as
    ``(figure, x_value, scenario, workload, clients_per_cluster)``; each
    distinct (protocol, figure, x_value) is one closed-loop YCSB run of
    ``duration_ms`` (two swept values that map to one point run once).
    """
    configs: Dict[Tuple[str, str, float], RunConfig] = {}
    for protocol in protocols:
        for x in x_values:
            figure, x_value, scenario, workload, clients_per_cluster = point(x)
            configs.setdefault((protocol, figure, x_value), RunConfig(
                protocol=protocol,
                scenario=scenario,
                workload=workload,
                clients_per_cluster=clients_per_cluster,
                duration_ms=duration_ms,
            ))
    return [
        ExperimentPoint(
            figure=figure,
            protocol=stats.protocol,
            x_label=x_label,
            x_value=x_value,
            throughput_txn_s=stats.throughput_txn_s,
            throughput_ops_s=stats.throughput_ops_s,
            mean_latency_ms=stats.latency.mean,
            p95_latency_ms=stats.latency.p95,
            committed=stats.committed,
            aborted=stats.aborted,
            extras={"remote_rpc_fraction": stats.remote_rpc_fraction},
        )
        for (_, figure, x_value), stats in zip(
            configs, run_configs(list(configs.values()), jobs=jobs))
    ]


def _two_regions(servers_per_cluster: int) -> Scenario:
    """The Virginia + Oregon deployment Figures 3B and 4-6 run on."""
    return Scenario(regions=["VA", "OR"], servers_per_cluster=servers_per_cluster)


def _clients_point(figure: str, scenario: Scenario, clients: int) -> tuple:
    """Spread ``clients`` evenly over the clusters (at least one each); the
    x-value is the client count actually run."""
    clusters = len(scenario.cluster_regions())
    per_cluster = max(1, clients // clusters)
    return figure, per_cluster * clusters, scenario, YCSBConfig(), per_cluster


#: Figure 3's panels: A two clusters in one datacenter, B Virginia + Oregon,
#: C five regions.
FIG3_DEPLOYMENTS: Dict[str, Scenario] = {
    "A-single-dc": Scenario(regions=["VA"], clusters_per_region=2),
    "B-two-regions": Scenario(regions=["VA", "OR"]),
    "C-five-regions": Scenario(regions=list(FIVE_REGION_DEPLOYMENT)),
}


def figure3_geo_replication(
    client_counts: Sequence[int] = (2, 8, 16),
    duration_ms: float = 1000.0,
    servers_per_cluster: int = 5,
    jobs: Optional[int] = None,
) -> List[ExperimentPoint]:
    """Figure 3: YCSB latency/throughput versus number of clients, on each
    of its three deployments (:data:`FIG3_DEPLOYMENTS`); a point's
    ``figure`` names its panel, ``fig3<deployment>``."""
    return _figure_sweep(
        "clients", FIGURE_PROTOCOLS,
        [(f"fig3{name}", replace(base, servers_per_cluster=servers_per_cluster),
          clients)
         for name, base in FIG3_DEPLOYMENTS.items() for clients in client_counts],
        lambda x: _clients_point(*x), duration_ms, jobs)


def composite_guarantee_sweep(
    client_counts: Sequence[int] = (2, 8),
    duration_ms: float = 800.0,
    jobs: Optional[int] = None,
) -> List[ExperimentPoint]:
    """Latency/throughput of stacked protocols on the two-region deployment.

    The paper argues the session guarantees are achievable without giving up
    HAT latency; this sweep quantifies it by running the registry's composite
    specs (``causal``, ``mav+causal``) beside their single-guarantee bases
    under the Figure 3B methodology.
    """
    return _figure_sweep(
        "clients", COMPOSITE_SWEEP_PROTOCOLS, client_counts,
        lambda clients: _clients_point("composite", _two_regions(2), clients),
        duration_ms, jobs)


def figure4_transaction_length(
    lengths: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
    protocols: Sequence[str] = FIGURE_PROTOCOLS,
    clients_per_cluster: int = 4,
    duration_ms: float = 800.0,
    jobs: Optional[int] = None,
) -> List[ExperimentPoint]:
    """Figure 4: throughput versus operations per transaction (VA + OR)."""
    return _figure_sweep(
        "transaction length", protocols, lengths,
        lambda length: ("fig4", length, _two_regions(5),
                        YCSBConfig(operations_per_transaction=length),
                        clients_per_cluster),
        duration_ms, jobs)


def figure5_write_proportion(
    write_proportions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    protocols: Sequence[str] = FIGURE_PROTOCOLS,
    clients_per_cluster: int = 12,
    duration_ms: float = 800.0,
    jobs: Optional[int] = None,
) -> List[ExperimentPoint]:
    """Figure 5: throughput versus the fraction of write operations (VA + OR,
    two servers per cluster).

    The default client count is chosen to saturate the (small) server pool,
    because the paper's read-versus-write throughput differences come from
    per-operation server cost (WAL flushes, LSM writes, MAV's second write),
    which only governs throughput once servers — not client round trips —
    are the bottleneck.
    """
    return _figure_sweep(
        "write proportion", protocols, write_proportions,
        lambda proportion: ("fig5", proportion, _two_regions(2),
                            YCSBConfig(write_proportion=proportion),
                            clients_per_cluster),
        duration_ms, jobs)


def figure6_scale_out(
    servers_per_cluster_values: Sequence[int] = (5, 10, 15, 25),
    duration_ms: float = 800.0,
    jobs: Optional[int] = None,
) -> List[ExperimentPoint]:
    """Figure 6: throughput versus total servers, two clusters (VA + OR).

    The paper uses 15 YCSB clients per server; here it is three, so the
    sweep completes quickly, but the client count still scales with the
    number of servers so linear scale-out is observable.
    """
    return _figure_sweep(
        "total servers", (EVENTUAL, READ_COMMITTED, MAV),
        servers_per_cluster_values,
        lambda servers: ("fig6", servers * 2, _two_regions(servers),
                         YCSBConfig(), 3 * servers),
        duration_ms, jobs)


# ---------------------------------------------------------------------------
# Availability under a partition campaign (the Table 3 claim, measured)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AvailabilityParams(_Deployment):
    """Everything one availability run depends on besides the protocol."""

    baseline_ms: float = 3_000.0
    partition_ms: float = 6_000.0
    recovery_ms: float = 3_000.0


@dataclass
class AvailabilityTimeline:
    """One protocol's per-window availability record under a campaign."""

    protocol: str
    campaign: Campaign
    window_ms: float
    #: Home region -> per-window timeline for the clients homed there.
    groups: Dict[str, GroupTimeline]
    #: Aggregate stats of the same run (for cross-checking totals).
    stats: RunStats
    #: What the nemesis actually did, stamped with simulated fire times.
    narration: List[NarrationEntry] = field(default_factory=list)

    def phase_availability(self, group: str) -> Dict[str, Optional[float]]:
        """SLO-window availability per campaign phase for one client group."""
        return self.groups[group].phase_availability(self.campaign.phases)

    def min_phase_availability(self, phase: str) -> Optional[float]:
        """The worst group's availability during ``phase`` (None if unscored)."""
        scores = [self.phase_availability(group).get(phase)
                  for group in self.groups]
        scores = [s for s in scores if s is not None]
        return min(scores) if scores else None


def _availability_run(protocol: str, params: AvailabilityParams,
                      recorder: Optional[object] = None
                      ) -> AvailabilityTimeline:
    """One protocol's full availability run (the parallel-sweep worker)."""
    campaign = _partition_campaign(params)
    telemetry = TimelineTelemetry()
    # A request the partition strands expires inside the recovery phase (the
    # default 10 s deadline outlives a quick campaign): half of it.
    recovered = campaign.phases[-1]
    retry = RetryPolicy(rpc_timeout_ms=(recovered.end_ms - recovered.start_ms) / 2)
    stats, narration = _closed_loop_leg(
        protocol, build_testbed(_scenario(params)), campaign,
        YCSBConfig(key_count=10_000), params,
        retry=retry, recorder=recorder, telemetry=telemetry)
    return AvailabilityTimeline(
        protocol=protocol,
        campaign=campaign,
        window_ms=telemetry.window_ms,
        groups=telemetry.build(),
        stats=stats,
        narration=narration,
    )


def availability_experiment(
    protocols: Sequence[str] = AVAILABILITY_PROTOCOLS,
    recorder: Optional[object] = None,
    jobs: Optional[int] = None,
    **overrides,
) -> List[AvailabilityTimeline]:
    """Sweep protocol specs across the canonical region-partition campaign.

    Every protocol runs the same closed-loop YCSB workload while the nemesis
    executes a three-phase campaign — baseline, a partition isolating the
    first region from the rest, recovery — and the telemetry layer scores
    each SLO window per client region.  The artifact shows sticky-available
    stacks serving through the partition while the unavailable baselines
    stall: the availability column of Table 3, finally measured end-to-end
    rather than argued from the impossibility proofs.  ``overrides`` set
    :class:`AvailabilityParams` fields.
    """
    if recorder is not None:
        if len(list(protocols)) > 1:
            # Runs restart session ids from zero, so one recorder would merge
            # independent histories into colliding Adya sessions.
            raise ReproError(
                "pass a recorder only when sweeping a single protocol")
        # A recorder accumulates in-process state, which worker processes
        # could not hand back; the single-protocol case it is limited to
        # runs sequentially regardless of ``jobs``.
        jobs = None
    params = AvailabilityParams(**overrides)
    return run_tasks(_availability_run,
                     [(protocol, params, recorder) for protocol in protocols],
                     jobs=jobs)


# ---------------------------------------------------------------------------
# TPC-C through the simulated cluster (the Section 6.2 predictions, measured)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TPCCSimParams(_Deployment):
    """Everything one TPC-C simulation depends on besides the protocol."""

    seed: int = 0
    #: Length of a healthy run; a partitioned run lasts its campaign.
    duration_ms: float = 1500.0
    #: Run under the canonical partition campaign with timeline telemetry.
    partition: bool = False
    baseline_ms: float = 1_000.0
    partition_ms: float = 2_000.0
    recovery_ms: float = 1_000.0
    window_ms: float = 500.0


@dataclass
class TPCCSimResult:
    """One protocol's TPC-C run: throughput plus the audited anomalies."""

    protocol: str
    stats: RunStats
    anomalies: TPCCAnomalyReport
    #: Committed transactions per TPC-C program (from the shared mirror).
    committed_by_type: Dict[str, int] = field(default_factory=dict)
    #: Set when the run executed under a partition campaign.
    campaign: Optional[Campaign] = None
    #: Per-phase worst-group availability, when a campaign ran.
    phase_availability: Dict[str, Optional[float]] = field(default_factory=dict)
    narration: List[NarrationEntry] = field(default_factory=list)

    @property
    def partitioned(self) -> bool:
        return self.campaign is not None


def _tpcc_sim_run(protocol: str, params: TPCCSimParams) -> TPCCSimResult:
    """One protocol's full TPC-C simulation (the parallel-sweep worker)."""
    testbed = build_testbed(_scenario(params))
    recorder = HistoryRecorder()
    factory = TPCCDriverFactory(config=contended_tpcc_config())
    # Preload first: the campaign (if any) installs afterwards, so its
    # fault timeline is relative to the measured run, not the load.
    run_preload(testbed, factory)
    run_start_ms = testbed.env.now
    campaign = telemetry = None
    if params.partition:
        campaign = _partition_campaign(params)
        telemetry = TimelineTelemetry(window_ms=params.window_ms)
    stats, narration = _closed_loop_leg(
        protocol, testbed, campaign, factory, params,
        duration_ms=params.duration_ms, recorder=recorder,
        telemetry=telemetry, preload=False)
    report = audit_tpcc_history(recorder.build())
    phase_availability: Dict[str, Optional[float]] = {}
    if campaign is not None:
        timeline = AvailabilityTimeline(
            protocol=protocol, campaign=_shifted(campaign, run_start_ms),
            window_ms=params.window_ms, groups=telemetry.build(), stats=stats)
        phase_availability = {
            phase.name: timeline.min_phase_availability(phase.name)
            for phase in campaign.phases}
    return TPCCSimResult(
        protocol=protocol,
        stats=stats,
        anomalies=report,
        committed_by_type=dict(factory.mirror.committed_by_type),
        campaign=campaign,
        phase_availability=phase_availability,
        narration=narration,
    )


def tpcc_sim_experiment(
    protocols: Sequence[str] = TPCC_SIM_PROTOCOLS,
    jobs: Optional[int] = None,
    **overrides,
) -> List[TPCCSimResult]:
    """Run the TPC-C mix through every protocol and audit the histories.

    Each protocol gets a fresh testbed, a fresh shared-mirror driver
    factory, and its own history recorder; afterwards the auditor counts
    the Section 6.2 anomalies (duplicate/gapped district order ids, double
    deliveries).  With ``partition=True`` the run executes under the
    canonical baseline -> region-partition -> recovery campaign with
    timeline telemetry, measuring what a partition does to *both*
    availability and anomaly rates: the HAT stacks keep serving (and keep
    colliding on order ids), the coordinated baselines go dark but stay
    clean.  With ``jobs=N`` the protocols fan out across worker processes
    (each already builds its own testbed, factory, and recorder).
    ``overrides`` set :class:`TPCCSimParams` fields.
    """
    params = TPCCSimParams(**overrides)
    return run_tasks(_tpcc_sim_run,
                     [(protocol, params) for protocol in protocols], jobs=jobs)


# ---------------------------------------------------------------------------
# Elasticity: availability and data movement through live membership churn
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElasticityParams(_Deployment):
    """Everything one elasticity run depends on besides the protocol."""

    baseline_ms: float = 2_000.0
    scale_out_ms: float = 2_500.0
    partition_ms: float = 4_000.0
    scale_in_ms: float = 2_500.0
    recovery_ms: float = 1_500.0
    window_ms: float = 500.0


@dataclass
class ElasticityResult(AvailabilityTimeline):
    """One protocol's run through the canonical elasticity campaign: its
    availability timeline plus what the membership churn moved."""

    #: Every membership change the coordinator drove, in firing order.
    rebalances: List[RebalanceRecord] = field(default_factory=list)
    #: Adya anomaly witness counts on the recorded history.
    anomalies: Dict[str, int] = field(default_factory=dict)

    def first_join(self) -> Optional[RebalanceRecord]:
        """The healthy scale-out join (the keys-moved-vs-ideal headline)."""
        for record in self.rebalances:
            if record.kind == "join" and record.done:
                return record
        return None


def _ring_scenario(params, **extra) -> Scenario:
    """Ring placement (elastic membership needs it), with catch-up rounds
    capped so handoff/heal bursts do not saturate replicas."""
    return _scenario(
        params, placement="ring",
        anti_entropy=AntiEntropyConfig(max_versions_per_round=32), **extra)


def _elasticity_run(protocol: str, params: ElasticityParams) -> ElasticityResult:
    """One protocol's full elasticity run (the parallel-sweep worker)."""
    testbed = build_testbed(_ring_scenario(params))
    campaign = canonical_elasticity_campaign(
        list(params.regions), cluster=testbed.config.cluster_names[0],
        baseline_ms=params.baseline_ms, scale_out_ms=params.scale_out_ms,
        partition_ms=params.partition_ms, scale_in_ms=params.scale_in_ms,
        recovery_ms=params.recovery_ms)
    telemetry = TimelineTelemetry(window_ms=params.window_ms)
    recorder = HistoryRecorder()
    stats, narration = _closed_loop_leg(
        protocol, testbed, campaign, YCSBConfig(key_count=5_000), params,
        retry=CHAOS_RETRY, recorder=recorder, telemetry=telemetry)
    history = recorder.build()
    return ElasticityResult(
        protocol=protocol,
        campaign=campaign,
        window_ms=params.window_ms,
        groups=telemetry.build(),
        stats=stats,
        rebalances=list(testbed.membership.records),
        anomalies={name: len(detect(history, name))
                   for name in ELASTICITY_ANOMALIES},
        narration=narration,
    )


def elasticity_experiment(
    protocols: Sequence[str] = ELASTICITY_PROTOCOLS,
    jobs: Optional[int] = None,
    **overrides,
) -> List[ElasticityResult]:
    """Sweep protocol specs through the canonical elasticity campaign.

    Every protocol runs the same closed-loop YCSB workload on a
    ring-placed deployment while the nemesis executes five phases:
    baseline, a live scale-out (a joining server streams owed versions
    and serves only after catch-up), a region partition *with a second
    rebalance inside it*, a scale-in draining a server back out, and
    recovery.  The result carries per-phase SLO availability (the sticky
    HAT stacks keep serving through the partitioned rebalance while
    master/quorum stall), the coordinator's rebalance records (keys moved
    versus the 1/n consistent-hashing ideal, handoff bytes and duration),
    and Adya anomaly counts from the recorded history.  ``overrides`` set
    :class:`ElasticityParams` fields.
    """
    params = ElasticityParams(**overrides)
    return run_tasks(_elasticity_run,
                     [(protocol, params) for protocol in protocols], jobs=jobs)


# ---------------------------------------------------------------------------
# Staleness observatory: t-visibility / k-staleness recency probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StalenessParams(_Deployment):
    """Everything one staleness run depends on besides the protocol."""

    healthy_ms: float = 2_000.0
    partition_ms: float = 4_000.0
    rebalance_ms: float = 4_000.0
    window_ms: float = 500.0


@dataclass
class StalenessResult:
    """One protocol's recency profile through the staleness campaign."""

    protocol: str
    campaign: Campaign
    window_ms: float
    #: phase name -> metric name -> quantile summary dict (or None when a
    #: phase recorded no observations for that metric — e.g. master writes
    #: stranded by a partition whose replica pushes are never retransmitted
    #: simply have no t-visibility sample until they install, if ever).
    phase_recency: Dict[str, Dict[str, Optional[Dict[str, float]]]]
    #: metric name -> [(q, value), ...] whole-run CDF on a fixed grid.
    cdfs: Dict[str, List[Tuple[float, float]]]
    #: metric name -> whole-run quantile summary dict (or None).
    summaries: Dict[str, Optional[Dict[str, float]]]
    #: counter name -> total across label sets (sorted, deterministic).
    counters: Dict[str, float]
    #: The registry's windowed time-series export, fault windows joined.
    timeseries: Dict[str, object]
    #: Prometheus text-format snapshot of the final registry state.
    prometheus: str
    stats: RunStats
    narration: List[NarrationEntry] = field(default_factory=list)

    def phase_quantile(self, phase: str, metric: str,
                       which: str) -> Optional[float]:
        """One quantile (``"p50"``/``"p90"``/``"p99"``) or None if unseen."""
        summary = self.phase_recency.get(phase, {}).get(metric)
        if summary is None:
            return None
        return summary.get(which)


def _staleness_run(protocol: str, params: StalenessParams) -> StalenessResult:
    """One protocol's full staleness run (the parallel-sweep worker)."""
    testbed = build_testbed(_ring_scenario(
        params, metrics=True, metrics_window_ms=params.window_ms))
    campaign = canonical_staleness_campaign(
        list(params.regions), cluster=testbed.config.cluster_names[0],
        healthy_ms=params.healthy_ms, partition_ms=params.partition_ms,
        rebalance_ms=params.rebalance_ms)
    stats, narration = _closed_loop_leg(
        protocol, testbed, campaign, YCSBConfig(key_count=5_000), params,
        retry=CHAOS_RETRY)
    registry = testbed.metrics
    registry.finalize(testbed.env.now)
    # YCSB has no preload, so the run starts at t=0 and campaign phases are
    # absolute simulated times: phase windows index the registry directly.
    phase_recency: Dict[str, Dict[str, Optional[Dict[str, float]]]] = {}
    for phase in campaign.phases:
        tiles = phase_tiles(phase.start_ms, phase.end_ms, registry.window_ms)
        phase_recency[phase.name] = {
            metric: registry.merged_quantiles(metric, tiles)
            for metric in RECENCY_METRICS}
    summaries = {metric: registry.summary(metric) for metric in RECENCY_METRICS}
    cdfs = {metric: [] if summaries[metric] is None else
            [(q, registry.quantile(metric, q)) for q in STALENESS_CDF_GRID]
            for metric in RECENCY_METRICS}
    counters = {name: registry.counter_total(name)
                for name in sorted({key[0] for key in registry.counters})}
    return StalenessResult(
        protocol=protocol,
        campaign=campaign,
        window_ms=params.window_ms,
        phase_recency=phase_recency,
        cdfs=cdfs,
        summaries=summaries,
        counters=counters,
        timeseries=registry.timeseries(),
        prometheus=registry.prometheus(),
        stats=stats,
        narration=narration,
    )


def staleness_experiment(
    protocols: Sequence[str] = STALENESS_PROTOCOLS,
    jobs: Optional[int] = None,
    **overrides,
) -> List[StalenessResult]:
    """Sweep protocol stacks through the canonical staleness campaign.

    Every protocol runs the same closed-loop YCSB workload with the
    metrics registry switched on while the nemesis walks three phases:
    healthy, a cross-region partition, and a post-heal rebalance (a
    scale-out join racing the anti-entropy backlog drain).  The recency
    probes measure **t-visibility** (commit-at-origin to
    install-at-each-replica lag, bucketed by commit time so stranded
    partition-era writes are charged to the partition even though their
    installs land after the heal) and **k-staleness** (how many committed
    versions each read trailed the freshest commit by).  The result
    carries per-phase p50/p90/p99 for both metrics, whole-run CDFs on a
    fixed quantile grid, counter totals, the windowed time-series joined
    with fault windows, and a Prometheus text snapshot.  ``overrides`` set
    :class:`StalenessParams` fields.
    """
    params = StalenessParams(**overrides)
    return run_tasks(_staleness_run,
                     [(protocol, params) for protocol in protocols], jobs=jobs)


# ---------------------------------------------------------------------------
# Saturation: open-loop offered-load ramps and post-heal backlog drain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SaturationParams(_Deployment):
    """Everything one saturation run depends on besides the protocol."""

    users: int = 1_000_000
    sessions_per_cluster: int = 4
    ramp_start_rate_s: float = 20.0
    ramp_peak_rate_s: float = 600.0
    ramp_ms: float = 6_000.0
    baseline_ms: float = 1_500.0
    partition_ms: float = 3_000.0
    recovery_ms: float = 5_000.0
    window_ms: float = 500.0
    key_count: int = 10_000


@dataclass
class SaturationResult:
    """One protocol's offered-load ramp plus its partition-heal drain run."""

    protocol: str
    users: int
    sessions: int
    #: The healthy ramp run (offered load swept past the knee).
    ramp: OpenLoopStats
    #: Per-window offered/committed/backlog series, summed across regions.
    windows: List[WindowStats]
    #: Max windowed committed rate — the sustainable-throughput knee.
    knee_txn_s: float
    #: Offered rate of the first window whose backlog exceeded twice the
    #: session count — where the open queue visibly starts growing.  None
    #: means the ramp never drove this protocol into overload.
    overload_offered_s: Optional[float]
    #: Arrival-to-commit quantiles under the ramp (None with no commits).
    p50_ms: Optional[float]
    p99_ms: Optional[float]
    p999_ms: Optional[float]
    #: The fixed-rate run through the canonical partition campaign.
    heal: OpenLoopStats
    heal_campaign: Campaign
    #: Milliseconds after the partition healed until the backlog fell back
    #: to the session count.  0 means it never built up (sticky-available
    #: stacks); None means it never drained — the metastable signature.
    drain_ms: Optional[float]
    narration: List[NarrationEntry] = field(default_factory=list)


def _saturation_run(protocol: str, params: SaturationParams) -> SaturationResult:
    """One protocol's ramp + heal runs (the parallel-sweep worker)."""
    scenario = _scenario(params)
    workload = YCSBConfig(key_count=params.key_count)

    # Pass 1 — healthy ramp: offered load climbs linearly through the knee.
    telemetry = TimelineTelemetry(window_ms=params.window_ms)
    ramp_stats, _ = _open_loop_leg(
        protocol, build_testbed(scenario), None,
        RampArrivals(params.ramp_start_rate_s, params.ramp_peak_rate_s,
                     params.ramp_ms),
        workload, params, duration_ms=params.ramp_ms, telemetry=telemetry)
    windows = sum_groups(telemetry.build(), params.window_ms).windows
    sessions = ramp_stats.sessions
    digest = ramp_stats.digest
    has_commits = digest.count > 0

    # Pass 2 — fixed offered rate through partition and heal: an open-loop
    # client keeps arriving at the same rate while the system is dark, so
    # the backlog the partition built must drain after it heals (or not —
    # the metastable case).
    heal_testbed = build_testbed(scenario)
    campaign = _partition_campaign(params)
    heal_at_ms = heal_testbed.env.now + params.baseline_ms + params.partition_ms
    # Per cluster, 4 arrivals/s: deliberately below every protocol's healthy
    # capacity, so backlog growth is attributable to the partition rather
    # than to standing overload.
    heal_stats, narration = _open_loop_leg(
        protocol, heal_testbed, campaign, PoissonArrivals(4.0),
        workload, params, seed=params.seed + 1, retry=CHAOS_RETRY)
    drain_ms = next((sample.t_ms - heal_at_ms for sample in heal_stats.backlog
                     if sample.t_ms >= heal_at_ms
                     and sample.backlog <= sessions), None)

    return SaturationResult(
        protocol=protocol,
        users=params.users,
        sessions=sessions,
        ramp=ramp_stats,
        windows=windows,
        knee_txn_s=max((w.throughput_txn_s for w in windows), default=0.0),
        overload_offered_s=next(
            (w.offered_rate_s for w in windows
             if w.queue_depth > 2 * sessions), None),
        p50_ms=digest.quantile(0.5) if has_commits else None,
        p99_ms=digest.quantile(0.99) if has_commits else None,
        p999_ms=digest.quantile(0.999) if has_commits else None,
        heal=heal_stats,
        heal_campaign=campaign,
        drain_ms=drain_ms,
        narration=narration,
    )


def saturation_experiment(
    protocols: Sequence[str] = SATURATION_PROTOCOLS,
    jobs: Optional[int] = None,
    **overrides,
) -> List[SaturationResult]:
    """Sweep protocol specs through an open-loop offered-load ramp.

    Unlike the closed-loop figures — where ``users`` clients issue the next
    transaction only after the previous reply, so offered load *falls* as the
    system slows — the open-loop engine makes load an arrival process over a
    bounded session pool: request rate is the traffic model's choice, and a
    million logical users cost a pool's worth of memory.  Two passes per
    protocol: a linear ramp past the saturation knee (max sustainable
    committed rate, plus p50/p99/p999 of arrival-to-commit latency, queueing
    included), then a fixed-rate run through the canonical partition
    campaign measuring how long the backlog the partition built takes to
    drain after heal.  With ``jobs=N`` protocols fan out across worker
    processes; the merge is in input order, so results are bit-identical to
    a sequential run.  ``overrides`` set :class:`SaturationParams` fields.
    """
    params = SaturationParams(**overrides)
    return run_tasks(_saturation_run,
                     [(protocol, params) for protocol in protocols], jobs=jobs)


# ---------------------------------------------------------------------------
# Metastability: trigger, sustaining retry feedback, (defended) recovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetastabilityParams(_Deployment):
    """Everything one leg depends on besides (protocol, defenses on/off)."""

    #: One server per cluster, over a single worker (:func:`_metastability_run`).
    servers_per_cluster: ClassVar[int] = 1
    #: Large pool: the retry storm needs concurrency to sustain itself.
    sessions_per_cluster: ClassVar[int] = 256
    users: ClassVar[int] = 100_000
    baseline_ms: float = 1_500.0
    partition_ms: float = 2_000.0
    recovery_ms: float = 6_000.0
    window_ms: float = 250.0


#: The metastability leg's deliberately tight RPC deadline — the knob every
#: retry-storm postmortem names.  The undefended catch-up burst wedges a
#: worker for longer than this, so every queued request's client gives up
#: and re-sends.
METASTABILITY_RPC_TIMEOUT_MS = 250.0


@dataclass
class MetastabilityRun:
    """One (protocol, defenses on/off) leg through the trigger campaign."""

    protocol: str
    #: ``True`` ran with the full defense stack (bounded admission queues,
    #: capped catch-up rounds, retry budget, circuit breaker); ``False``
    #: ran the naive configuration (unbounded queues, one-burst catch-up,
    #: aggressive retries).
    defended: bool
    stats: OpenLoopStats
    #: Per-window offered/committed/backlog series, summed across regions.
    windows: List[WindowStats]
    campaign: Campaign
    #: When the partition healed (the trigger ended), on the window clock.
    heal_at_ms: float
    #: Mean committed rate over the pre-trigger baseline windows.
    healthy_rate_s: float
    #: Mean committed rate over every post-heal window.
    post_heal_rate_s: float
    #: Post-heal goodput stuck at or below the pin fraction of healthy.
    pinned: bool
    #: Milliseconds after heal until the *trailing* mean committed rate
    #: (that window through end of run) first reached the recovery
    #: fraction of healthy.  None = never recovered within the run.
    time_to_recover_ms: Optional[float]
    narration: List[NarrationEntry] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        return self.time_to_recover_ms is not None


@dataclass
class MetastabilityResult:
    """One protocol's undefended and defended legs, side by side."""

    protocol: str
    undefended: MetastabilityRun
    defended: MetastabilityRun


def _mean_rate_s(windows: Sequence[WindowStats]) -> float:
    if not windows:
        return 0.0
    return sum(w.throughput_txn_s for w in windows) / len(windows)


def _metastability_run(protocol: str, defended: bool,
                       params: MetastabilityParams) -> MetastabilityRun:
    """One (protocol, defenses) leg (the parallel-sweep worker).

    Both legs run the *same* trigger — the canonical partition campaign at
    the same offered rate, timeouts, and retry count — over a deployment
    whose anti-entropy catch-up is coupled to service capacity.  They
    differ only in the defenses:

    * undefended — unbounded server queues, an uncapped catch-up round
      (the whole partition backlog lands as one worker-wedging burst), and
      retries with no budget or breaker.  The burst stalls foreground past
      the RPC deadline, every session times out and retries, and the
      amplified load (timed-out requests still consume full service
      capacity — pure wasted work) sustains the overload after the trigger
      is gone: Bronson et al.'s metastable failure.
    * defended — bounded queues with adaptive-LIFO shedding (explicit
      fast ``Overloaded`` rejections instead of silent queueing), the
      capped catch-up default (the same backlog drains in interleavable
      chunks), a retry budget bounding amplification to ~1.1x, and a
      circuit breaker that sheds client pressure while the server is dark.
    """
    # Undefended, an explicit effectively-unbounded cap (winning over the
    # coupled default) reproduces the naive deployment: the first post-heal
    # round pushes the entire backlog as one request.
    anti_entropy = AntiEntropyConfig(
        interval_ms=25.0,
        capacity_coupled=True,
        send_cost_ms_per_version=2.0,
        max_versions_per_round=None if defended else 1_000_000)
    defenses = dict(retry_budget_ratio=0.1, breaker_failure_threshold=8,
                    breaker_cooldown_ms=500.0) if defended else {}
    retry = RetryPolicy(
        rpc_timeout_ms=METASTABILITY_RPC_TIMEOUT_MS,
        lock_timeout_ms=METASTABILITY_RPC_TIMEOUT_MS,
        max_attempts=6, backoff_base_ms=10.0, backoff_cap_ms=80.0, **defenses)
    # Raised per-request cost over a single worker: utilization sits high
    # enough that amplified load crosses capacity.
    testbed = build_testbed(_scenario(
        params,
        service_cost=ServiceCostModel(request_overhead_ms=2.5, concurrency=1),
        anti_entropy=anti_entropy,
        max_queue_depth=48 if defended else None))
    campaign = _partition_campaign(params)
    baseline, _, recovery = _shifted(campaign, testbed.env.now).phases
    telemetry = TimelineTelemetry(window_ms=params.window_ms)
    # 120 arrivals/s per cluster, below the deployment's healthy knee, so only
    # retry amplification (never raw load) can exceed capacity.  Short
    # interactive requests (the retry-storm literature's shape): a timed-out
    # attempt wastes a full request's worth of server work, so retries
    # amplify load past what the same arrival would cost when healthy.
    stats, narration = _open_loop_leg(
        protocol, testbed, campaign, PoissonArrivals(120.0),
        YCSBConfig(key_count=10_000, operations_per_transaction=2,
                   write_proportion=0.5),
        params, retry=retry, telemetry=telemetry)
    timeline = sum_groups(telemetry.build(), params.window_ms)
    heal_at_ms = recovery.start_ms
    post_windows = timeline.phase_windows(recovery)
    healthy_rate_s = _mean_rate_s(timeline.phase_windows(baseline))
    post_heal_rate_s = _mean_rate_s(post_windows)
    pinned = bool(post_windows) and healthy_rate_s > 0.0 and (
        post_heal_rate_s <= METASTABILITY_PIN_FRACTION * healthy_rate_s)
    time_to_recover_ms: Optional[float] = None
    if healthy_rate_s > 0.0:
        threshold = METASTABILITY_RECOVERY_FRACTION * healthy_rate_s
        for index in range(len(post_windows)):
            if _mean_rate_s(post_windows[index:]) >= threshold:
                time_to_recover_ms = (post_windows[index].start_ms
                                      - heal_at_ms)
                break
    return MetastabilityRun(
        protocol=protocol,
        defended=defended,
        stats=stats,
        windows=timeline.windows,
        campaign=campaign,
        heal_at_ms=heal_at_ms,
        healthy_rate_s=healthy_rate_s,
        post_heal_rate_s=post_heal_rate_s,
        pinned=pinned,
        time_to_recover_ms=time_to_recover_ms,
        narration=narration,
    )


def metastability_experiment(
    protocols: Sequence[str] = METASTABILITY_PROTOCOLS,
    jobs: Optional[int] = None,
    **overrides,
) -> List[MetastabilityResult]:
    """Drive each protocol through trigger -> feedback -> recovery, twice.

    The campaign partitions the regions (the *trigger*), during which each
    side's anti-entropy backlog accumulates; the heal releases the backlog
    into capacity-coupled catch-up while timed-out sessions retry (the
    *sustaining feedback*).  The undefended leg shows the metastable
    signature — post-heal goodput pinned below the healthy baseline long
    after the trigger ended — and the defended leg shows the same trigger
    absorbed by admission control, bounded catch-up, retry budgets, and
    circuit breaking, with a measured time to recover.  With ``jobs=N``
    the (protocol, defenses) legs fan out across worker processes;
    results merge in input order, bit-identical to a sequential run.
    ``overrides`` set :class:`MetastabilityParams` fields.
    """
    params = MetastabilityParams(**overrides)
    runs = run_tasks(_metastability_run,
                     [(protocol, defended, params)
                      for protocol in protocols for defended in (False, True)],
                     jobs=jobs)
    return [MetastabilityResult(protocol=undefended.protocol,
                                undefended=undefended, defended=defended)
            for undefended, defended in zip(runs[0::2], runs[1::2])]


# ---------------------------------------------------------------------------
# Tracing: critical-path decomposition and anomaly provenance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceParams(_Deployment):
    """Everything a traced run depends on besides (protocol, condition)."""

    #: Length of a healthy stack run; partitioned runs last the campaign.
    duration_ms: float = 3_000.0
    baseline_ms: float = 1_000.0
    partition_ms: float = 2_000.0
    recovery_ms: float = 1_000.0
    key_count: int = 10_000


#: Faulted-context traces the provenance leg exports beside the implicated
#: ones.
CONTEXT_TRACES = 25


@dataclass
class TraceStackResult:
    """One (protocol, condition) traced run's critical-path aggregate."""

    protocol: str
    #: ``healthy`` or ``partitioned`` (the canonical partition campaign).
    condition: str
    stats: RunStats
    #: :func:`~repro.obs.critical_path.aggregate_stack` over every committed
    #: transaction of the run.
    critical_path: Dict[str, object]
    #: The same aggregate restricted to committed transactions that
    #: overlapped an active fault window (empty-shaped when healthy).
    faulted_critical_path: Dict[str, object]
    traces: int
    spans: int
    fault_windows: List[Dict[str, object]] = field(default_factory=list)
    narration: List[NarrationEntry] = field(default_factory=list)


@dataclass
class TraceProvenanceResult:
    """The traced, partitioned TPC-C run joined back to its anomalies."""

    protocol: str
    stats: RunStats
    anomalies: TPCCAnomalyReport
    #: :func:`~repro.obs.provenance.join_anomalies` output (JSON-ready).
    provenance: Dict[str, object]
    #: Chrome trace-event JSON of the implicated (plus faulted-context)
    #: traces and the fault timeline — load at https://ui.perfetto.dev.
    chrome: Dict[str, object]
    spans: int
    exported_traces: int
    narration: List[NarrationEntry] = field(default_factory=list)


def _committed_breakdowns(tracer) -> List[Tuple[float, Dict[str, float], bool]]:
    """Per committed transaction: ``(latency, breakdown, faulted)``."""
    children: Dict[int, List] = {}
    for span in tracer.spans:
        if span.parent_id is not None:
            children.setdefault(span.trace_id, []).append(span)
    rows = []
    for root in tracer.spans:
        if root.kind != "txn" or root.parent_id is not None:
            continue
        if root.end_ms is None or root.end_ms <= root.start_ms:
            continue
        if root.attrs.get("committed"):
            breakdown = decompose(root, children.get(root.trace_id, ()))
            rows.append((root.duration_ms, breakdown, bool(root.faults)))
    return rows


def _trace_stack_run(protocol: str, partition: bool,
                     params: TraceParams) -> TraceStackResult:
    """One traced (protocol, condition) run (the parallel-sweep worker)."""
    testbed = build_testbed(_scenario(params, tracing=True))
    tracer = testbed.tracer
    # Partitioned, the timed-out RPC becomes the trace's ``retry`` segment.
    stats, narration = _closed_loop_leg(
        protocol, testbed, _partition_campaign(params) if partition else None,
        YCSBConfig(key_count=params.key_count), params,
        duration_ms=params.duration_ms,
        retry=CHAOS_RETRY if partition else RetryPolicy())
    tracer.finalize(testbed.env.now)
    rows = _committed_breakdowns(tracer)
    committed = [(latency, breakdown) for latency, breakdown, _ in rows]
    faulted = [(latency, breakdown)
               for latency, breakdown, was_faulted in rows if was_faulted]
    return TraceStackResult(
        protocol=protocol,
        condition="partitioned" if partition else "healthy",
        stats=stats,
        critical_path=aggregate_stack(committed),
        faulted_critical_path=aggregate_stack(faulted),
        traces=len({span.trace_id for span in tracer.spans}),
        spans=len(tracer.spans),
        fault_windows=[w.as_dict() for w in tracer.fault_windows],
        narration=narration,
    )


def _provenance_export_spans(tracer, provenance: Dict[str, object]) -> List:
    """The spans worth shipping: implicated traces plus faulted context.

    A full TPC-C run's span list is large; the artifact keeps every trace
    the provenance joiner implicated, then pads with the first
    :data:`CONTEXT_TRACES` transaction traces that overlapped a fault (falling
    back to the earliest transactions when none did).  Selection is by
    tracer-local trace id, so it is identical across ``--jobs`` layouts.
    """
    keep = {trace["trace_id"]
            for entry in provenance["entries"]
            for trace in entry["traces"]}
    budget = len(keep) + CONTEXT_TRACES
    txn_roots = [span for span in tracer.spans
                 if span.kind == "txn" and span.parent_id is None]
    preferred = [span.trace_id for span in txn_roots if span.faults]
    for trace_id in preferred + [span.trace_id for span in txn_roots]:
        if len(keep) >= budget:
            break
        keep.add(trace_id)
    return [span for span in tracer.spans if span.trace_id in keep]


def _trace_tpcc_run(params: TraceParams) -> TraceProvenanceResult:
    """The traced TPC-C provenance leg, on ``eventual``: partitioned,
    audited, and joined."""
    protocol = EVENTUAL
    testbed = build_testbed(_scenario(params, tracing=True))
    tracer = testbed.tracer
    recorder = HistoryRecorder()
    factory = TPCCDriverFactory()
    run_preload(testbed, factory)
    stats, narration = _closed_loop_leg(
        protocol, testbed, _partition_campaign(params), factory, params,
        retry=CHAOS_RETRY, recorder=recorder, preload=False)
    tracer.finalize(testbed.env.now)
    report = audit_tpcc_history(recorder.build())
    provenance = join_anomalies(report, tracer)
    exported = _provenance_export_spans(tracer, provenance)
    chrome = chrome_trace(exported, tracer.fault_windows,
                          process_name=f"repro tpcc {protocol}")
    return TraceProvenanceResult(
        protocol=protocol,
        stats=stats,
        anomalies=report,
        provenance=provenance,
        chrome=chrome,
        spans=len(tracer.spans),
        exported_traces=len({span.trace_id for span in exported}),
        narration=narration,
    )


def trace_experiment(
    protocols: Sequence[str] = TRACE_PROTOCOLS,
    jobs: Optional[int] = None,
    **overrides,
) -> Tuple[List[TraceStackResult], TraceProvenanceResult]:
    """Trace every protocol stack healthy and partitioned, then join anomalies.

    Two legs.  The stack leg runs each protocol through the same closed-loop
    YCSB workload twice — healthy, and under the canonical partition
    campaign — with tracing on, and decomposes every committed transaction's
    arrival-to-commit latency into exclusive critical-path segments
    (queueing / RTT / service / retry / lock-wait / client).  The provenance
    leg runs the contended TPC-C mix under the same campaign, audits the
    history for Section 6.2 anomalies, and joins each one back to the traces
    of its claimant transactions and the fault windows they overlapped.

    With ``jobs=N`` the runs fan out across worker processes; every id in
    the output is tracer-local, so the merged artifact is bit-identical to
    a sequential run.  ``overrides`` set :class:`TraceParams` fields.
    """
    params = TraceParams(**overrides)
    stack_results = run_tasks(
        _trace_stack_run,
        [(protocol, partition, params)
         for protocol in protocols for partition in (False, True)],
        jobs=jobs)
    return stack_results, _trace_tpcc_run(params)
