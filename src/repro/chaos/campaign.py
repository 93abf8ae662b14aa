"""Chaos campaigns: declarative fault timelines, synthesized from a seed.

Section 2.1 of the paper surveys production partition behaviour: failures
arrive over time, last minutes, overlap, and heal.  A *campaign* replays that
kind of history inside the simulation so experiments can measure a protocol
*through* a failure timeline instead of under a single static fault.

Two stages here, a third in the nemesis:

* :class:`CampaignSpec` — a declarative description of how much chaos of
  each kind a run should contain (how many region partitions, flapping
  links, crash/recover cycles, whether to roll-restart the fleet, how many
  degraded-latency epochs).
* :func:`generate_campaign` — a seeded generator that synthesizes a concrete
  :class:`Campaign` (a sorted list of timed :class:`CampaignAction`) from a
  spec.  Identical seeds yield bit-identical campaigns; each fault family
  draws from its own named random stream so tweaking one knob does not
  reshuffle the others.
* :class:`~repro.chaos.nemesis.Nemesis` — checks a campaign against a built
  testbed and puts each action on its clock; what each kind *does* is defined
  there, in one table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.sim import RandomStreams

#: Action kinds a campaign may contain: the keys of ``nemesis.FAULTS``.
PARTITION = "partition"
CLEAR_PARTITION = "clear-partition"
ISOLATE = "isolate"
REJOIN = "rejoin"
CRASH = "crash"
RECOVER = "recover"
DEGRADE = "degrade"
RESTORE = "restore"
SCALE_OUT = "scale-out"
SCALE_IN = "scale-in"

#: Refuse to synthesize a flap epoch with more cycles than this: a tiny
#: period against a long epoch means millions of actions, not a campaign.
MAX_FLAP_CYCLES = 10_000


class CampaignError(ReproError):
    """Raised for invalid campaign specs or campaigns a testbed cannot run."""


@dataclass(frozen=True)
class CampaignAction:
    """One timed fault action of a campaign (pure data, no callables)."""

    at_ms: float
    kind: str
    #: Server name for isolate/rejoin/crash/recover actions; cluster name
    #: for scale-out/scale-in membership actions.
    target: Optional[str] = None
    #: Region groups for partition actions.
    groups: Tuple[Tuple[str, ...], ...] = ()
    #: Latency multiplier for degrade actions.
    factor: Optional[float] = None
    note: str = ""


@dataclass(frozen=True)
class CampaignPhase:
    """A named interval of the campaign timeline, for per-phase scoring."""

    name: str
    start_ms: float
    end_ms: float


@dataclass(frozen=True)
class Campaign:
    """A concrete fault timeline: sorted actions plus named phases."""

    duration_ms: float
    actions: Tuple[CampaignAction, ...]
    phases: Tuple[CampaignPhase, ...]
    seed: int = 0

    def timeline(self) -> List[CampaignAction]:
        return sorted(self.actions, key=lambda a: a.at_ms)


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative chaos knobs; :func:`generate_campaign` makes them concrete.

    Ranges are ``(low, high)`` tuples sampled uniformly.  Region partitions
    are laid out in non-overlapping slots so a later partition's clear never
    truncates an earlier one; the point-fault families (flapping, crashes,
    restarts, degraded latency) may overlap partitions freely, which is
    exactly the messy timeline Section 2.1 describes.
    """

    duration_ms: float = 12_000.0
    #: Number of region partition epochs.
    partitions: int = 1
    partition_duration_ms: Tuple[float, float] = (2_000.0, 4_000.0)
    #: Explicit region groups for every partition; None splits the region
    #: list in half at a random point (at least one region per side).
    partition_groups: Optional[Sequence[Sequence[str]]] = None
    #: Number of servers whose link flaps (rapid isolate/rejoin cycles).
    flapping_servers: int = 0
    flap_period_ms: float = 400.0
    #: Fraction of each flap period the link is up.
    flap_duty: float = 0.5
    flap_duration_ms: Tuple[float, float] = (1_500.0, 3_000.0)
    #: Crash slots, each a crash/recover cycle (victims drawn with replacement);
    #: a slot with no server a scale-in spares by its end stays empty.
    crashes: int = 0
    crash_downtime_ms: Tuple[float, float] = (500.0, 2_000.0)
    #: Restart every server once, staggered, each down for a fixed time.
    rolling_restart: bool = False
    restart_downtime_ms: float = 300.0
    restart_stagger_ms: float = 500.0
    #: Number of degraded-latency epochs.
    degraded_epochs: int = 0
    degraded_factor: float = 5.0
    degraded_duration_ms: Tuple[float, float] = (1_000.0, 2_500.0)
    #: Membership churn: individual joins, individual decommissions, and
    #: rebalance storms (rapid join-then-leave cycles in one cluster).
    #: All three require the run's scenario to use ring placement and the
    #: campaign generator to be told the cluster names.
    scale_outs: int = 0
    scale_ins: int = 0
    rebalance_storms: int = 0
    #: Length range of the phase window scored around each membership event.
    rebalance_phase_ms: Tuple[float, float] = (1_000.0, 2_000.0)
    #: Join-then-leave cycles per storm and their period.
    storm_cycles: int = 2
    storm_period_ms: float = 1_200.0

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise CampaignError("campaign duration must be positive")
        for name in ("partitions", "flapping_servers", "crashes",
                     "degraded_epochs", "scale_outs", "scale_ins",
                     "rebalance_storms"):
            if getattr(self, name) < 0:
                raise CampaignError(f"{name} cannot be negative")
        if self.storm_cycles < 1:
            raise CampaignError("storm_cycles must be at least 1")
        if self.storm_period_ms <= 0:
            raise CampaignError("storm_period_ms must be positive")
        for name in ("partition_duration_ms", "flap_duration_ms",
                     "crash_downtime_ms", "degraded_duration_ms",
                     "rebalance_phase_ms"):
            low, high = getattr(self, name)
            if not 0 < low <= high:
                raise CampaignError(f"{name} must be an increasing positive range")
        if not 0.0 < self.flap_duty <= 1.0:
            raise CampaignError("flap_duty must be in (0, 1]")
        if self.flap_period_ms <= 0:
            raise CampaignError("flap_period_ms must be positive")
        if self.restart_downtime_ms <= 0:
            raise CampaignError("restart_downtime_ms must be positive")
        if self.restart_stagger_ms < 0:
            raise CampaignError("restart_stagger_ms cannot be negative")
        if self.degraded_factor <= 0:
            raise CampaignError("degraded_factor must be positive")


def _split_regions(rng, regions: Sequence[str]) -> Tuple[Tuple[str, ...], ...]:
    if len(regions) < 2:
        raise CampaignError(
            "a region partition needs at least two regions; "
            f"the scenario has {list(regions)!r}"
        )
    cut = rng.randrange(1, len(regions))
    return (tuple(regions[:cut]), tuple(regions[cut:]))


def _partition_actions(spec: CampaignSpec, regions: Sequence[str],
                       rng) -> Tuple[List[CampaignAction], List[CampaignPhase]]:
    """Non-overlapping partition epochs, one per equal slot of the timeline."""
    actions: List[CampaignAction] = []
    phases: List[CampaignPhase] = []
    for index in range(spec.partitions):
        start, length = _slot_epoch(
            rng, spec.duration_ms, index, spec.partitions,
            rng.uniform(*spec.partition_duration_ms))
        if spec.partition_groups is not None:
            groups = tuple(tuple(group) for group in spec.partition_groups)
        else:
            groups = _split_regions(rng, regions)
        label = f"partition-{index + 1}"
        actions.append(CampaignAction(
            at_ms=start, kind=PARTITION, groups=groups,
            note=f"{label}: split regions {[list(g) for g in groups]}",
        ))
        actions.append(CampaignAction(
            at_ms=start + length, kind=CLEAR_PARTITION,
            note=f"{label}: partition heals",
        ))
        phases.append(CampaignPhase(label, start, start + length))
    return actions, phases


def _flapping_actions(spec: CampaignSpec, servers: Sequence[str],
                      rng) -> Tuple[List[CampaignAction], List[CampaignPhase]]:
    actions: List[CampaignAction] = []
    phases: List[CampaignPhase] = []
    for index in range(spec.flapping_servers):
        server = servers[rng.randrange(len(servers))]
        start, length = _slot_epoch(
            rng, spec.duration_ms, index, spec.flapping_servers,
            rng.uniform(*spec.flap_duration_ms))
        if length / spec.flap_period_ms > MAX_FLAP_CYCLES:
            raise CampaignError(
                f"flap_period_ms={spec.flap_period_ms:g} is too small for a "
                f"{length:g} ms flap epoch: it would emit more than "
                f"{MAX_FLAP_CYCLES} isolate/rejoin cycles")
        label = f"flap-{index + 1}"
        down_ms = spec.flap_period_ms * (1.0 - spec.flap_duty)
        t = start
        while t < start + length and down_ms > 0:
            actions.append(CampaignAction(
                at_ms=t, kind=ISOLATE, target=server,
                note=f"{label}: {server} link down",
            ))
            actions.append(CampaignAction(
                at_ms=min(t + down_ms, start + length), kind=REJOIN,
                target=server, note=f"{label}: {server} link up",
            ))
            t += spec.flap_period_ms
        phases.append(CampaignPhase(label, start, start + length))
    return actions, phases


def _slot_epoch(rng, duration_ms: float, index: int, count: int,
                length: float) -> Tuple[float, float]:
    """A start time inside slot ``index`` of ``count`` equal slots.

    Epochs of one fault family must never overlap: the underlying state is
    single-valued (one global latency factor, one alive flag per server), so
    an earlier epoch's restore/recover would silently cancel a later one.
    """
    slot = duration_ms / count
    length = min(length, 0.9 * slot)
    slack = slot - length
    return index * slot + rng.uniform(0.0, slack), length


def _unretired(servers, membership, until_ms: float) -> List[str]:
    """The servers no scale-in by ``until_ms`` may retire (``<cluster>-s<i>``)."""
    shrunk = {a.target for a in membership if a.kind == SCALE_IN and a.at_ms <= until_ms}
    return [s for s in servers if s.rsplit("-", 1)[0] not in shrunk]


def _downtime_actions(spec: CampaignSpec, servers: Sequence[str], membership, crash_rng,
                      restart_rng) -> Tuple[List[CampaignAction], List[CampaignPhase]]:
    """Crash cycles and the rolling restart, slotted as *one* family.

    Both manipulate the same per-server alive flag, so their epochs must not
    overlap even across the two knobs: a recover from one epoch would revive
    a server inside another epoch's declared downtime.  The rolling restart,
    when enabled, takes the last slot (compressed to fit if necessary).
    Each picks among the servers ``_unretired`` by the end of its slot, or none.
    """
    actions: List[CampaignAction] = []
    phases: List[CampaignPhase] = []
    epochs = spec.crashes + (1 if spec.rolling_restart else 0)
    if epochs == 0:
        return actions, phases
    slot = spec.duration_ms / epochs
    for index in range(spec.crashes):
        label = f"crash-{index + 1}"
        eligible = _unretired(servers, membership, (index + 1) * slot)
        if not eligible:
            continue
        server = eligible[crash_rng.randrange(len(eligible))]
        start, downtime = _slot_epoch(
            crash_rng, spec.duration_ms, index, epochs,
            crash_rng.uniform(*spec.crash_downtime_ms))
        actions.append(CampaignAction(
            at_ms=start, kind=CRASH, target=server,
            note=f"{label}: {server} crashes",
        ))
        actions.append(CampaignAction(
            at_ms=start + downtime, kind=RECOVER, target=server,
            note=f"{label}: {server} recovers",
        ))
        phases.append(CampaignPhase(label, start, start + downtime))
    servers = _unretired(servers, membership, spec.duration_ms) if spec.rolling_restart else []
    if servers:
        wanted = spec.restart_stagger_ms * len(servers) + spec.restart_downtime_ms
        start, total = _slot_epoch(restart_rng, spec.duration_ms,
                                   epochs - 1, epochs, wanted)
        scale = total / wanted
        stagger = spec.restart_stagger_ms * scale
        downtime = spec.restart_downtime_ms * scale
        for index, server in enumerate(servers):
            down = start + index * stagger
            actions.append(CampaignAction(
                at_ms=down, kind=CRASH, target=server,
                note=f"rolling-restart: {server} goes down",
            ))
            actions.append(CampaignAction(
                at_ms=down + downtime, kind=RECOVER, target=server,
                note=f"rolling-restart: {server} back up",
            ))
        phases.append(CampaignPhase("rolling-restart", start, start + total))
    return actions, phases


def _degraded_actions(spec: CampaignSpec,
                      rng) -> Tuple[List[CampaignAction], List[CampaignPhase]]:
    actions: List[CampaignAction] = []
    phases: List[CampaignPhase] = []
    for index in range(spec.degraded_epochs):
        start, length = _slot_epoch(
            rng, spec.duration_ms, index, spec.degraded_epochs,
            rng.uniform(*spec.degraded_duration_ms))
        label = f"degraded-{index + 1}"
        actions.append(CampaignAction(
            at_ms=start, kind=DEGRADE, factor=spec.degraded_factor,
            note=f"{label}: latency x{spec.degraded_factor:g}",
        ))
        actions.append(CampaignAction(
            at_ms=start + length, kind=RESTORE,
            note=f"{label}: latency restored",
        ))
        phases.append(CampaignPhase(label, start, start + length))
    return actions, phases


def _membership_actions(spec: CampaignSpec, clusters: Sequence[str],
                        rng) -> Tuple[List[CampaignAction], List[CampaignPhase]]:
    """Joins, decommissions, and rebalance storms, slotted as one family.

    Membership changes of one cluster must not race each other (the
    coordinator serializes them by deferral, but overlapped epochs would
    blur the per-phase scores), so all three knobs share the slot layout
    the other families use.  Each event fires at its phase start; the
    phase window is what the telemetry scores around it.
    """
    epochs = spec.scale_outs + spec.scale_ins + spec.rebalance_storms
    actions: List[CampaignAction] = []
    phases: List[CampaignPhase] = []
    if epochs == 0:
        return actions, phases
    if not clusters:
        raise CampaignError(
            "membership events (scale_outs/scale_ins/rebalance_storms) "
            "require generate_campaign(..., clusters=...)")
    kinds = ([SCALE_OUT] * spec.scale_outs + [SCALE_IN] * spec.scale_ins
             + ["storm"] * spec.rebalance_storms)
    for index, kind in enumerate(kinds):
        cluster = clusters[rng.randrange(len(clusters))]
        start, length = _slot_epoch(
            rng, spec.duration_ms, index, epochs,
            rng.uniform(*spec.rebalance_phase_ms))
        if kind == "storm":
            label = f"storm-{index + 1}"
            for cycle in range(spec.storm_cycles):
                t = start + cycle * spec.storm_period_ms
                if t >= start + length:
                    break
                actions.append(CampaignAction(
                    at_ms=t, kind=SCALE_OUT, target=cluster,
                    note=f"{label}: {cluster} scales out",
                ))
                leave_at = min(t + spec.storm_period_ms / 2.0, start + length)
                actions.append(CampaignAction(
                    at_ms=leave_at, kind=SCALE_IN, target=cluster,
                    note=f"{label}: {cluster} scales back in",
                ))
        else:
            verb = "scales out" if kind == SCALE_OUT else "scales in"
            label = f"{kind}-{index + 1}"
            actions.append(CampaignAction(
                at_ms=start, kind=kind, target=cluster,
                note=f"{label}: {cluster} {verb}",
            ))
        phases.append(CampaignPhase(label, start, start + length))
    return actions, phases


def generate_campaign(spec: CampaignSpec, regions: Sequence[str],
                      servers: Sequence[str], seed: int = 0,
                      clusters: Sequence[str] = ()) -> Campaign:
    """Synthesize a concrete campaign from a declarative spec.

    ``regions`` and ``servers`` come from the scenario / cluster config the
    campaign will run against; ``clusters`` (cluster names) is required only
    when the spec contains membership events.  Each fault family draws from
    its own named stream of ``RandomStreams(seed)``, so identical seeds
    yield bit-identical campaigns and changing one family's knobs leaves
    the others' timing untouched.
    """
    if not servers:
        raise CampaignError("campaign generation needs at least one server")
    streams = RandomStreams(seed)
    actions: List[CampaignAction] = []
    phases: List[CampaignPhase] = []
    membership = _membership_actions(spec, clusters, streams.stream("chaos-membership"))
    for part_actions, part_phases in (
        _partition_actions(spec, regions, streams.stream("chaos-partitions")),
        _flapping_actions(spec, servers, streams.stream("chaos-flapping")),
        _downtime_actions(spec, servers, membership[0], streams.stream("chaos-crashes"),
                          streams.stream("chaos-restarts")),
        _degraded_actions(spec, streams.stream("chaos-degraded")),
        membership,
    ):
        actions.extend(part_actions)
        phases.extend(part_phases)
    ordered = tuple(sorted(actions, key=lambda a: (a.at_ms, a.kind, a.target or "")))
    named = _with_boundary_phases(spec.duration_ms, phases)
    return Campaign(duration_ms=spec.duration_ms, actions=ordered,
                    phases=tuple(named), seed=seed)


#: The heal every canonical split ends with, at the start of its phase.
_HEAL = CampaignAction(at_ms=0, kind=CLEAR_PARTITION, note="partition heals")


def _region_split(regions: Sequence[str], campaign: str) -> CampaignAction:
    """The canonical split, first region versus the rest, at the start of
    its phase; ``campaign`` names the builder a one-region run is refused by."""
    if len(regions) < 2:
        raise CampaignError(f"the {campaign} campaign needs at least two regions")
    groups = ((regions[0],), tuple(regions[1:]))
    return CampaignAction(at_ms=0, kind=PARTITION, groups=groups,
                          note=f"partition: {list(groups[0])} | {list(groups[1])}")


def _phased(*phases: Tuple[str, float, Tuple[CampaignAction, ...]]) -> Campaign:
    """Consecutive ``(name, length_ms, actions)`` phases from 0: an action's
    ``at_ms`` is its offset into its phase."""
    ends = list(accumulate(length for _name, length, _actions in phases))
    starts = [0.0, *ends[:-1]]
    return Campaign(
        duration_ms=ends[-1],
        actions=tuple(replace(action, at_ms=start + action.at_ms)
                      for start, (_name, _length, actions) in zip(starts, phases)
                      for action in actions),
        phases=tuple(CampaignPhase(name, start, end) for start, end, (name, _, _)
                     in zip(starts, ends, phases)))


def canonical_partition_campaign(regions: Sequence[str],
                                 baseline_ms: float = 3_000.0,
                                 partition_ms: float = 6_000.0,
                                 recovery_ms: float = 3_000.0) -> Campaign:
    """The availability experiment's fixed three-phase campaign.

    Baseline, then a full region partition isolating the first region from
    the rest (the paper's canonical WAN failure), then recovery.  Fully
    deterministic — no generator randomness — so the figure-style artifact
    is reproducible by construction.
    """
    return _phased(
        ("baseline", baseline_ms, ()),
        ("partition", partition_ms, (_region_split(regions, "canonical"),)),
        ("recovered", recovery_ms, (_HEAL,)))


def canonical_elasticity_campaign(regions: Sequence[str],
                                  cluster: str,
                                  baseline_ms: float = 2_000.0,
                                  scale_out_ms: float = 2_500.0,
                                  partition_ms: float = 4_000.0,
                                  scale_in_ms: float = 2_500.0,
                                  recovery_ms: float = 1_500.0) -> Campaign:
    """The elasticity experiment's fixed five-phase campaign.

    Baseline, then a live scale-out of ``cluster``; then the canonical
    region partition (first region versus the rest) *with a second join
    rebalancing the partitioned cluster mid-split* — the phase where
    sticky HAT stacks must keep serving while coordinated baselines
    stall; then a scale-in draining the extra capacity back out; then
    recovery.  Fully deterministic — no generator randomness — so the
    ``elasticity`` artifact is reproducible by construction.
    """
    return _phased(
        ("baseline", baseline_ms, ()),
        ("scale-out", scale_out_ms, (
            CampaignAction(at_ms=0, kind=SCALE_OUT, target=cluster,
                           note=f"scale-out: {cluster} gains a server"),)),
        ("partitioned-rebalance", partition_ms, (
            _region_split(regions, "elasticity"),
            CampaignAction(at_ms=partition_ms * 0.25, kind=SCALE_OUT,
                           target=cluster,
                           note=f"rebalance under partition: {cluster} "
                                "gains another server"))),
        ("scale-in", scale_in_ms, (
            _HEAL,
            CampaignAction(at_ms=0, kind=SCALE_IN, target=cluster,
                           note=f"scale-in: {cluster} drains a server"))),
        ("recovered", recovery_ms, ()))


def canonical_staleness_campaign(regions: Sequence[str],
                                 cluster: str,
                                 healthy_ms: float = 2_000.0,
                                 partition_ms: float = 4_000.0,
                                 rebalance_ms: float = 4_000.0) -> Campaign:
    """The staleness observatory's fixed three-phase campaign.

    Healthy steady state, then the canonical region partition (first region
    versus the rest) — the phase where anti-entropy backlogs grow and
    t-visibility blows up for writes stranded on either side — then a heal
    that immediately scales ``cluster`` out, so the recovery phase measures
    recency while catch-up and a membership handoff compete for capacity.
    Fully deterministic — no generator randomness — so the ``staleness``
    artifact is reproducible by construction.
    """
    return _phased(
        ("healthy", healthy_ms, ()),
        ("partition", partition_ms, (_region_split(regions, "staleness"),)),
        ("rebalance", rebalance_ms, (
            _HEAL,
            CampaignAction(at_ms=0, kind=SCALE_OUT, target=cluster,
                           note=f"rebalance: {cluster} gains a server"))))


def _with_boundary_phases(duration_ms: float,
                          fault_phases: List[CampaignPhase]) -> List[CampaignPhase]:
    """Add baseline/recovered phases around the fault epochs."""
    if not fault_phases:
        return [CampaignPhase("baseline", 0.0, duration_ms)]
    ordered = sorted(fault_phases, key=lambda p: p.start_ms)
    first = ordered[0].start_ms
    last = max(p.end_ms for p in ordered)
    named: List[CampaignPhase] = []
    if first > 0:
        named.append(CampaignPhase("baseline", 0.0, first))
    named.extend(ordered)
    if last < duration_ms:
        named.append(CampaignPhase("recovered", last, duration_ms))
    return named
