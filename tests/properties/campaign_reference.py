"""The canonical campaign builders as they stood before they became phases.

``repro.chaos.campaign`` builds each canonical campaign from its phases
(``_phased``: a phase is a name, a length and its actions at offsets into
it) and one split helper.  These are the three builders it replaced,
verbatim: each sums its phase boundaries by hand and repeats the split.
``test_property_campaigns.py`` holds the rewrite to them, action for action
and phase for phase.
"""

from typing import Sequence

from repro.chaos.campaign import (CLEAR_PARTITION, PARTITION, SCALE_IN, SCALE_OUT,
                                  Campaign, CampaignAction, CampaignError,
                                  CampaignPhase)


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
    if len(regions) < 2:
        raise CampaignError("the canonical campaign needs at least two regions")
    groups = ((regions[0],), tuple(regions[1:]))
    start = baseline_ms
    end = baseline_ms + partition_ms
    duration = baseline_ms + partition_ms + recovery_ms
    actions = (
        CampaignAction(at_ms=start, kind=PARTITION, groups=groups,
                       note=f"partition: {list(groups[0])} | {list(groups[1])}"),
        CampaignAction(at_ms=end, kind=CLEAR_PARTITION,
                       note="partition heals"),
    )
    phases = (
        CampaignPhase("baseline", 0.0, start),
        CampaignPhase("partition", start, end),
        CampaignPhase("recovered", end, duration),
    )
    return Campaign(duration_ms=duration, actions=actions, phases=phases)


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
    if len(regions) < 2:
        raise CampaignError("the elasticity campaign needs at least two regions")
    groups = ((regions[0],), tuple(regions[1:]))
    t_scale_out = baseline_ms
    t_partition = t_scale_out + scale_out_ms
    t_scale_in = t_partition + partition_ms
    t_recovered = t_scale_in + scale_in_ms
    duration = t_recovered + recovery_ms
    actions = (
        CampaignAction(at_ms=t_scale_out, kind=SCALE_OUT, target=cluster,
                       note=f"scale-out: {cluster} gains a server"),
        CampaignAction(at_ms=t_partition, kind=PARTITION, groups=groups,
                       note=f"partition: {list(groups[0])} | {list(groups[1])}"),
        CampaignAction(at_ms=t_partition + partition_ms * 0.25,
                       kind=SCALE_OUT, target=cluster,
                       note=f"rebalance under partition: {cluster} "
                            "gains another server"),
        CampaignAction(at_ms=t_scale_in, kind=CLEAR_PARTITION,
                       note="partition heals"),
        CampaignAction(at_ms=t_scale_in, kind=SCALE_IN, target=cluster,
                       note=f"scale-in: {cluster} drains a server"),
    )
    phases = (
        CampaignPhase("baseline", 0.0, t_scale_out),
        CampaignPhase("scale-out", t_scale_out, t_partition),
        CampaignPhase("partitioned-rebalance", t_partition, t_scale_in),
        CampaignPhase("scale-in", t_scale_in, t_recovered),
        CampaignPhase("recovered", t_recovered, duration),
    )
    return Campaign(duration_ms=duration, actions=actions, phases=phases)


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
    if len(regions) < 2:
        raise CampaignError("the staleness campaign needs at least two regions")
    groups = ((regions[0],), tuple(regions[1:]))
    t_partition = healthy_ms
    t_heal = healthy_ms + partition_ms
    duration = t_heal + rebalance_ms
    actions = (
        CampaignAction(at_ms=t_partition, kind=PARTITION, groups=groups,
                       note=f"partition: {list(groups[0])} | {list(groups[1])}"),
        CampaignAction(at_ms=t_heal, kind=CLEAR_PARTITION,
                       note="partition heals"),
        CampaignAction(at_ms=t_heal, kind=SCALE_OUT, target=cluster,
                       note=f"rebalance: {cluster} gains a server"),
    )
    phases = (
        CampaignPhase("healthy", 0.0, t_partition),
        CampaignPhase("partition", t_partition, t_heal),
        CampaignPhase("rebalance", t_heal, duration),
    )
    return Campaign(duration_ms=duration, actions=actions, phases=phases)
