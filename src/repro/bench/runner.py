"""Closed-loop workload driver.

Mirrors the paper's methodology: a fixed number of client threads per
cluster issue transactions back-to-back ("closed loop") for a fixed
duration; throughput is committed transactions per second and latency is the
transaction round-trip observed by the clients.  ``protocol`` is any spec
the protocol registry accepts — a plain base (``"mav"``) or a guarantee
stack (``"causal"``, ``"mav+wfr+mr"``) — so figure-style experiments can
sweep composite protocols.

The workload is pluggable: ``RunConfig.workload`` is any *workload factory*
(see :mod:`repro.workloads.base`) — :class:`~repro.workloads.ycsb.YCSBConfig`
for the paper's YCSB runs, :class:`~repro.workloads.tpcc_driver.TPCCDriverFactory`
for TPC-C through the cluster.  The runner builds one workload per client,
executes the factory's preload (plus an anti-entropy settle period) before
the measured interval, and feeds every finished result back through the
workload's ``observe`` hook so stateful drivers track what actually
committed.

Closed-loop load is inherently self-throttling: clients wait for replies,
so offered rate falls as the system slows and overload never shows.  For
arrival-process load over bounded session pools — saturation knees,
queueing delay, backlog drain — use the open-loop sibling,
:func:`repro.loadgen.engine.run_open_loop`, whose module also holds the
harness both drivers run inside (preload, where the measured interval and
its grace period sit on the sim clock).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.bench.metrics import RunStats, RunTally
from repro.errors import ReproError
from repro.hat.testbed import Scenario, Testbed, build_testbed
from repro.loadgen.engine import open_run_window
from repro.overload.retry import RetryPolicy
from repro.sim.events import gc_paused
from repro.workloads.base import Workload, as_workload_factory
from repro.workloads.ycsb import YCSBConfig

#: The closed loop's pause after an abort that consumed no simulated time.
#: Under a partition the unavailable protocols fail fast (the master check is
#: a local routing-table lookup) and a zero-delay retry loop would freeze the
#: simulated clock; an abort that *did* take time already paid its pacing
#: and retries at once.
ABORT_BACKOFF_MS = 25.0


@dataclass
class RunConfig:
    """Parameters of one benchmark run."""

    protocol: str
    scenario: Scenario
    #: Any workload factory (``build(seed, session_id)`` plus optional
    #: ``initial_transactions()``/``settle_ms`` — see repro.workloads.base).
    workload: Any = field(default_factory=YCSBConfig)
    clients_per_cluster: int = 4
    duration_ms: float = 1000.0
    warmup_ms: float = 100.0
    seed: int = 0
    #: How long to keep the simulation running past ``duration_ms`` so that
    #: in-flight transactions finish.  ``None`` scales with the scenario
    #: (:func:`repro.loadgen.engine.default_grace_period_ms`), because a
    #: fixed grace period silently truncates transactions in high-latency
    #: geo deployments.
    grace_period_ms: Optional[float] = None
    #: The run's timeout discipline (see
    #: :class:`repro.overload.retry.RetryPolicy`): the RPC and lock
    #: deadlines of every client the run constructs — chaos runs bound how
    #: long a client wedges behind a reply the partition dropped.
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self) -> None:
        # A closed-loop client reissues on completion and has no retry
        # loop: refuse the knobs only the open-loop engine acts on.
        for name in ("max_attempts", "retry_budget_ratio",
                     "breaker_failure_threshold"):
            value = getattr(self.retry, name)
            if value != getattr(RetryPolicy, name):  # the field's default
                raise ReproError(
                    f"RunConfig.retry sets {name}={value!r}, which a "
                    "closed-loop run ignores; retries, budgets and breakers "
                    "belong to run_open_loop (repro.loadgen.engine)")

    @property
    def total_clients(self) -> int:
        return self.clients_per_cluster * len(self.scenario.cluster_regions())


@gc_paused()
def run_workload(config: RunConfig,
                 testbed: Optional[Testbed] = None,
                 recorder: Optional[object] = None,
                 telemetry: Optional[object] = None,
                 preload: bool = True) -> RunStats:
    """Execute one closed-loop run, tallying each result as it completes
    and then dropping it (a ``recorder`` keeps the results).

    ``telemetry`` (a :class:`~repro.chaos.telemetry.TimelineTelemetry`)
    receives a ``begin``/``complete`` pair per transaction, keyed by the
    issuing client's home region, so chaos experiments can build per-window
    availability timelines out of the same closed-loop run.

    ``preload=False`` skips the factory's initial load — for callers that
    already ran :func:`~repro.workloads.base.run_preload` themselves, e.g.
    to install a chaos campaign *after* the preload so its fault timeline
    is relative to the measured run.
    """
    testbed = testbed or build_testbed(config.scenario)
    env = testbed.env
    factory = as_workload_factory(config.workload)
    _, measure_start, end_ms, horizon_ms = open_run_window(
        config, testbed, telemetry, preload)
    tally = RunTally(measure_start)
    client_kwargs = config.retry.client_kwargs(config.protocol)

    def client_loop(client, workload: Workload, group: str):
        observe = getattr(workload, "observe", None)
        while env.now < end_ms:
            transaction = workload.next_transaction()
            attempt = None
            if telemetry is not None:
                attempt = telemetry.begin(group, env.now)
            result = yield from client.transact(transaction)
            tally.add(result)
            if observe is not None:
                observe(result)
            if attempt is not None:
                telemetry.complete(attempt, result)
            if not result.committed and result.latency_ms <= 0.0:
                # Fail-fast abort (e.g. the master's local reachability
                # check): back off so the simulated clock always advances.
                yield env.timeout(ABORT_BACKOFF_MS)

    client_index = 0
    for cluster_name in testbed.config.cluster_names:
        group = testbed.config.cluster(cluster_name).region
        for _ in range(config.clients_per_cluster):
            client = testbed.make_client(config.protocol,
                                         home_cluster=cluster_name,
                                         recorder=recorder,
                                         **client_kwargs)
            workload = factory.build(seed=config.seed * 10_000 + client_index,
                                     session_id=client_index)
            env.process(client_loop(client, workload, group))
            client_index += 1

    # Let every in-flight transaction finish: run a grace period past the end.
    env.run(until=horizon_ms)

    return tally.summarize(config.protocol, config.total_clients,
                           config.duration_ms, config.warmup_ms)
