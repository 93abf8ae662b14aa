"""The open-loop traffic engine: arrival processes over session pools.

``run_open_loop`` is the open-loop sibling of the closed-loop
:func:`repro.bench.runner.run_workload`.  Load is an *arrival process*
(:mod:`repro.loadgen.arrivals`), not set by response latency, multiplexed
over a bounded :class:`~repro.loadgen.sessions.SessionPool` per cluster: a
run over a million logical users costs O(pool size) protocol clients and
O(histogram buckets) latency memory.  Per-window offered/completed/
queue-depth series flow through the chaos telemetry layer, which makes
*overload* (offered rate above the knee, post-partition backlog)
observable, not just slow.

A request's latency is arrival-to-commit, queueing included: what an
open-loop system's users see.  Committed latencies stream into a
:class:`~repro.loadgen.sketch.LatencyDigest` (log-linear buckets, exact
merge).

The two drivers share :func:`open_run_window` (preload, then the measured
interval and its grace period on the sim clock) and the collector pause
(:func:`repro.sim.events.gc_paused`): no collector pass runs inside a run,
and its survivors leave it already in the oldest generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.hat.testbed import Scenario, Testbed, build_testbed
from repro.loadgen.arrivals import ArrivalProcess
from repro.loadgen.sessions import PendingRequest, SessionPool
from repro.loadgen.sketch import LatencyDigest
from repro.overload.retry import RetryBudget, RetryPolicy
from repro.sim import RandomStreams
from repro.sim.events import gc_paused
from repro.workloads.base import as_arrival_source, run_preload
from repro.workloads.ycsb import YCSBConfig

__all__ = ["OpenLoopConfig", "OpenLoopStats", "BacklogSample", "run_open_loop"]

#: Default grace period: this multiple of the deployment's worst mean RTT.
GRACE_RTT_MULTIPLE = 10.0
#: Floor on the default grace period (the historical fixed value), so small
#: deployments keep their previous timing.
MIN_GRACE_PERIOD_MS = 2_000.0
#: How often the backlog sampler records queue depth / in-flight counts.
BACKLOG_SAMPLE_MS = 100.0


def default_grace_period_ms(testbed: Testbed) -> float:
    """The grace period a run config's ``grace_period_ms=None`` stands for."""
    return max(MIN_GRACE_PERIOD_MS, GRACE_RTT_MULTIPLE * testbed.max_rtt_ms())


def open_run_window(config, testbed: Testbed, telemetry: Optional[object],
                    preload: bool) -> Tuple[float, float, float, float]:
    """Run the workload's preload, then place the run on the sim clock.

    ``config`` is an :class:`OpenLoopConfig` or a closed-loop ``RunConfig``
    (the fields read here are common to both).  Returns ``(start_ms,
    measure_start_ms, end_ms, horizon_ms)``: the measured interval, where
    the warm-up inside it ends, and the end of the grace period in-flight
    requests finish in.  The preload (e.g. the TPC-C initial contents) goes
    through a plain eventual client with no recorder and finishes before
    ``start_ms``; telemetry records the post-warm-up interval only, so
    windowed totals agree with the aggregate stats.
    """
    if preload:
        run_preload(testbed, config.workload)
    start_ms = testbed.env.now
    end_ms = start_ms + config.duration_ms
    measure_start_ms = start_ms + config.warmup_ms
    grace_ms = config.grace_period_ms
    if grace_ms is None:
        grace_ms = default_grace_period_ms(testbed)
    if telemetry is not None:
        telemetry.start_run(measure_start_ms, end_ms)
    return start_ms, measure_start_ms, end_ms, end_ms + grace_ms


@dataclass
class OpenLoopConfig:
    """Parameters of one open-loop run."""

    protocol: str
    scenario: Scenario
    #: The per-cluster arrival process; every cluster runs an identical
    #: copy fed by an independently seeded RNG, so total offered load is
    #: ``len(clusters)`` times its rate.
    arrivals: ArrivalProcess = None  # type: ignore[assignment]
    #: A workload factory exposing ``arrival_source(seed)`` (YCSBConfig
    #: does): per-user transactions are generated statelessly.
    workload: Any = field(default_factory=YCSBConfig)
    #: Logical user population.  Only the *identity space* scales with this
    #: — memory is bounded by the session pools, which is the point.
    users: int = 1_000_000
    sessions_per_cluster: int = 8
    duration_ms: float = 2_000.0
    warmup_ms: float = 0.0
    seed: int = 0
    #: None scales with the deployment's worst RTT (same rule as the
    #: closed-loop runner) so in-flight requests finish.
    grace_period_ms: Optional[float] = None
    #: Bound on each pool's wait queue; arrivals beyond it are shed and
    #: counted.  None = unbounded queue (backlog growth stays observable).
    max_queue: Optional[int] = None
    #: Client-side timeout and retry discipline (see
    #: :class:`repro.overload.retry.RetryPolicy`): its deadlines go to
    #: every session's protocol client, and a failed (externally aborted)
    #: request is retried by its session with jittered exponential
    #: backoff, gated by the per-session retry budget and the per-pool
    #: circuit breaker the policy configures.  The default policy sets no
    #: deadline and never retries (``max_attempts=1``).
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self) -> None:
        if self.arrivals is None:
            raise ReproError("OpenLoopConfig requires an arrival process")
        if self.users < 1:
            raise ReproError("users must be >= 1")

    @property
    def total_sessions(self) -> int:
        return self.sessions_per_cluster * len(self.scenario.cluster_regions())


@dataclass(slots=True)
class BacklogSample:
    """One snapshot of the engine's pending work, summed over pools."""

    t_ms: float
    queued: int
    in_flight: int

    @property
    def backlog(self) -> int:
        return self.queued + self.in_flight

    def as_dict(self) -> Dict[str, float]:
        return {"t_ms": self.t_ms, "queued": self.queued,
                "in_flight": self.in_flight}


@dataclass
class OpenLoopStats:
    """Outcome of one open-loop run."""

    protocol: str
    users: int
    sessions: int
    duration_ms: float
    #: Arrivals generated during the measured interval (offered load).
    offered: int
    #: Arrivals shed at a full queue (0 unless ``max_queue`` is set).
    shed: int
    committed: int
    aborted: int
    operations: int
    #: Deepest any single pool's wait queue got.
    queue_peak: int
    #: Requests still queued or in flight when the run (plus grace) ended —
    #: nonzero means the run ended saturated.
    backlog_final: int
    #: Arrival-to-commit latency summary of committed requests (post-warmup).
    latency: Any
    #: The histogram behind ``latency`` (for cross-run roll-ups).
    digest: LatencyDigest
    #: Periodic queue/in-flight snapshots (the saturation/drain signal).
    backlog: List[BacklogSample] = field(default_factory=list)
    #: Retries the sessions issued (0 unless a retry policy allows them).
    retries: int = 0
    #: Retries refused because a session's token bucket was empty.
    retry_denials: int = 0
    #: Times a pool's circuit breaker opened.
    breaker_opens: int = 0
    #: Attempts an open breaker failed fast.
    breaker_denials: int = 0
    #: Requests the servers shed via admission control during the run.
    server_rejected: int = 0

    @property
    def committed_rate_s(self) -> float:
        return 1000.0 * self.committed / self.duration_ms


class _ShedResult:
    """Completion record for an arrival shed at a full queue."""

    __slots__ = ("end_ms", "committed", "internal_abort")

    def __init__(self, end_ms: float):
        self.end_ms = end_ms
        self.committed = False
        self.internal_abort = False


class _Counters:
    __slots__ = ("offered", "committed", "aborted", "operations", "retries")

    def __init__(self):
        self.offered = 0
        self.committed = 0
        self.aborted = 0
        self.operations = 0
        self.retries = 0


@gc_paused()
def run_open_loop(config: OpenLoopConfig,
                  testbed: Optional[Testbed] = None,
                  recorder: Optional[object] = None,
                  telemetry: Optional[object] = None,
                  preload: bool = True) -> OpenLoopStats:
    """Execute one open-loop run and aggregate its results.

    ``telemetry`` (a :class:`~repro.chaos.telemetry.TimelineTelemetry`)
    receives, per window: an ``offer`` per arrival, a ``begin``/``complete``
    pair per request (latency measured from *arrival*, so queueing shows
    up), and periodic ``observe_queue_depth`` samples — the offered-versus-
    completed and backlog series that make overload observable.
    """
    from repro.bench.metrics import LatencySummary  # lazy: avoids a cycle

    testbed = testbed or build_testbed(config.scenario)
    env = testbed.env
    start_ms, measure_start, end_ms, horizon_ms = open_run_window(
        config, testbed, telemetry, preload)

    streams = RandomStreams(config.seed)
    counters = _Counters()
    digest = LatencyDigest()
    backlog_series: List[BacklogSample] = []
    pools: List[SessionPool] = []
    groups: List[str] = []

    retry = config.retry
    breakers: List[Any] = []
    budget_pools: List[Dict[int, RetryBudget]] = []
    metrics = testbed.network.metrics

    def make_handler(group: str, budgets: Dict[int, RetryBudget], breaker,
                     retry_rng):
        if metrics is not None:
            # What this pool's budgets and breaker already count, read (the
            # budgets summed) when the registry exports.
            metrics.collect_counter(
                "retry_budget_deposits_total",
                lambda: sum(b.deposits for b in budgets.values()), group=group)
            metrics.collect_counter(
                "retry_budget_withdrawals_total",
                lambda: sum(b.withdrawals for b in budgets.values()),
                group=group)
            metrics.collect_counter(
                "retry_budget_denials_total",
                lambda: sum(b.denials for b in budgets.values()), group=group)
            if breaker is not None:
                metrics.collect_counter("breaker_opens_total",
                                        lambda: breaker.opens, group=group)
                metrics.collect_counter("breaker_denials_total",
                                        lambda: breaker.denials, group=group)

        def handle(client, session_id: int, request: PendingRequest):
            transaction = request.transaction
            transaction.session_id = session_id
            budget = None
            if retry.retry_budget_ratio is not None:
                budget = budgets.get(session_id)
                if budget is None:
                    budget = budgets[session_id] = retry.make_budget()
                budget.deposit()
            result = yield from client.transact(transaction)
            # Externally aborted requests (timeouts, overload rejections,
            # unreachable replicas) are retried with jittered exponential
            # backoff, bounded by the attempt cap and the session's retry
            # budget; an internal abort is the transaction's own choice
            # and is never retried.
            attempt_no = 1
            while (not result.committed and not result.internal_abort
                   and attempt_no < retry.max_attempts):
                if budget is not None and not budget.withdraw():
                    break
                delay = retry.backoff_ms(attempt_no, retry_rng)
                if delay > 0.0:
                    yield env.timeout(delay)
                counters.retries += 1
                attempt_no += 1
                result = yield from client.transact(transaction)
            if result.end_ms >= measure_start:
                if result.committed:
                    counters.committed += 1
                    counters.operations += (len(result.reads)
                                            + len(result.writes))
                    digest.add(result.end_ms - request.arrival_ms)
                else:
                    counters.aborted += 1
            if telemetry is not None and request.attempt is not None:
                telemetry.complete(request.attempt, result)
        return handle

    def dispatcher(pool: SessionPool, source, arrival_rng, user_rng,
                   group: str):
        index = 0
        for t in config.arrivals.arrivals(arrival_rng, start_ms, end_ms):
            delay = t - env.now
            if delay > 0:
                yield env.timeout(delay)
            now = env.now
            user_id = user_rng.randrange(config.users)
            transaction = source.transaction_for(user_id, index)
            index += 1
            counters.offered += 1
            attempt = None
            if telemetry is not None:
                telemetry.offer(group, now)
                attempt = telemetry.begin(group, now)
            admitted = pool.submit(PendingRequest(
                arrival_ms=now, user_id=user_id,
                transaction=transaction, attempt=attempt))
            if not admitted and attempt is not None:
                telemetry.complete(attempt, _ShedResult(now))

    def sampler():
        while env.now < horizon_ms:
            backlog_series.append(BacklogSample(
                t_ms=env.now,
                queued=sum(pool.depth for pool in pools),
                in_flight=sum(pool.busy for pool in pools)))
            if telemetry is not None:
                for pool, group in zip(pools, groups):
                    telemetry.observe_queue_depth(group, env.now,
                                                  pool.backlog)
            yield env.timeout(BACKLOG_SAMPLE_MS)

    rejected_before = sum(server.stats.rejected
                          for server in testbed.servers.values())
    for cluster_index, cluster_name in enumerate(testbed.config.cluster_names):
        group = testbed.config.cluster(cluster_name).region
        # The policy's deadlines become client kwargs.  Each pool gets its
        # own jitter stream (named streams are independent: a policy that
        # never retries draws nothing from it) and, when configured, one
        # circuit breaker shared by its sessions.
        pool_kwargs = retry.client_kwargs(config.protocol)
        retry_rng = streams.stream(f"retry:{cluster_name}")
        breaker = retry.make_breaker()
        if breaker is not None:
            breakers.append(breaker)
            pool_kwargs["breaker"] = breaker
        pool = SessionPool(
            testbed, config.protocol, cluster_name,
            size=config.sessions_per_cluster, recorder=recorder,
            max_queue=config.max_queue,
            first_session_id=cluster_index * config.sessions_per_cluster,
            client_kwargs=pool_kwargs)
        pools.append(pool)
        groups.append(group)
        budgets: Dict[int, RetryBudget] = {}
        budget_pools.append(budgets)
        pool.start(make_handler(group, budgets, breaker, retry_rng))
        source = as_arrival_source(config.workload,
                                   seed=config.seed * 10_000 + cluster_index)
        env.process(dispatcher(
            pool, source,
            streams.stream(f"arrivals:{cluster_name}"),
            streams.stream(f"users:{cluster_name}"),
            group))
    env.process(sampler())
    env.run(until=horizon_ms)

    return OpenLoopStats(
        protocol=config.protocol,
        users=config.users,
        sessions=config.total_sessions,
        duration_ms=config.duration_ms,
        offered=counters.offered,
        shed=sum(pool.shed for pool in pools),
        committed=counters.committed,
        aborted=counters.aborted,
        operations=counters.operations,
        queue_peak=max((pool.queue_peak for pool in pools), default=0),
        backlog_final=sum(pool.backlog for pool in pools),
        latency=LatencySummary.from_digest(digest),
        digest=digest,
        backlog=backlog_series,
        retries=counters.retries,
        retry_denials=sum(budget.denials for budgets in budget_pools
                          for budget in budgets.values()),
        breaker_opens=sum(b.opens for b in breakers),
        breaker_denials=sum(b.denials for b in breakers),
        server_rejected=(sum(server.stats.rejected
                             for server in testbed.servers.values())
                         - rejected_before),
    )
