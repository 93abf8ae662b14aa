"""The nemesis: installs a chaos campaign into a testbed and narrates it.

Named after Jepsen's fault-injecting process, the nemesis is the bridge
between a data-only :class:`~repro.chaos.campaign.Campaign` and a running
simulation.  :data:`FAULTS` is the one place a fault kind is defined: what
the action must name, how it is narrated and what it does to the testbed.
:meth:`Nemesis.install` checks every action against the deployment, then puts
each on the simulation clock; when one fires it is applied, appended to the
narration log — the ``(simulated time, kind, description)`` record
experiments attach to their artifacts so a timeline plot can be read against
what the nemesis did — and fed to the deployment's fault ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.chaos.campaign import (
    CLEAR_PARTITION,
    CRASH,
    DEGRADE,
    ISOLATE,
    PARTITION,
    RECOVER,
    REJOIN,
    RESTORE,
    SCALE_IN,
    SCALE_OUT,
    Campaign,
    CampaignAction,
    CampaignError,
)


@dataclass(frozen=True)
class NarrationEntry:
    """One fired fault action, stamped with the simulated time it applied.

    This *is* the structured event log: machine-readable time, fault kind,
    and targets, with ``__str__`` rendering the human narration on top of
    the same record.  The trace joiner and the artifact reports both
    consume it.
    """

    at_ms: float
    kind: str
    description: str
    #: Machine-readable fault targets (sites/regions/clusters; empty for
    #: global actions such as ``clear-partition``).
    targets: Tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"[t={self.at_ms:9.1f} ms] {self.kind:>15}: {self.description}"

    def as_dict(self) -> dict:
        return {"at_ms": self.at_ms, "kind": self.kind,
                "description": self.description,
                "targets": list(self.targets)}


def _groups(action: CampaignAction) -> List[List[str]]:
    return [list(group) for group in action.groups]


#: kind -> (what the action names, its narration, what it does).  The first
#: column — ``"server"`` / ``"cluster"`` (``action.target``), ``"regions"``
#: (``action.groups``), ``"factor"`` or ``None`` — is what ``install`` checks
#: against the deployment and what the entry's ``targets`` are read from.  A
#: kind that opens or closes a fault window also has a row in
#: :mod:`repro.obs.trace`.
FAULTS: Dict[str, Tuple[Optional[str], Callable[[CampaignAction], str],
                        Callable[[object, CampaignAction], None]]] = {
    PARTITION: ("regions",
                lambda a: f"partition regions into {_groups(a)}",
                lambda tb, a: tb.partition_regions(_groups(a))),
    CLEAR_PARTITION: (None, lambda a: "clear region partition",
                      lambda tb, a: tb.network.partitions.clear_partition()),
    ISOLATE: ("server", lambda a: f"isolate {a.target}",
              lambda tb, a: tb.network.partitions.isolate(a.target)),
    REJOIN: ("server", lambda a: f"rejoin {a.target}",
             lambda tb, a: tb.network.partitions.rejoin(a.target)),
    CRASH: ("server", lambda a: f"crash {a.target}",
            lambda tb, a: tb.servers[a.target].crash()),
    RECOVER: ("server", lambda a: f"recover {a.target}",
              lambda tb, a: tb.servers[a.target].recover()),
    DEGRADE: ("factor", lambda a: f"degrade latency x{a.factor:g}",
              lambda tb, a: tb.network.degrade(a.factor)),
    RESTORE: (None, lambda a: "restore latency",
              lambda tb, a: tb.network.restore()),
    SCALE_OUT: ("cluster", lambda a: f"scale out {a.target}",
                lambda tb, a: tb.membership.scale_out(a.target)),
    SCALE_IN: ("cluster", lambda a: f"scale in {a.target}",
               lambda tb, a: tb.membership.scale_in(a.target)),
}


def _targets(action: CampaignAction) -> Tuple[str, ...]:
    names = FAULTS[action.kind][0]
    if names == "regions":
        return tuple(region for group in action.groups for region in group)
    return (action.target,) if names in ("server", "cluster") else ()


def _problem(action: CampaignAction, deployment: Dict[str, object]) -> Optional[str]:
    """Why a deployment cannot run ``action`` (None when it can)."""
    if action.kind not in FAULTS:
        return "is of an unknown kind"
    if action.at_ms < 0:
        return "is scheduled in the past"
    names = FAULTS[action.kind][0]
    if names == "factor":
        positive = action.factor is not None and action.factor > 0
        return None if positive else "needs a positive latency factor"
    unknown = [t for t in _targets(action) if t not in deployment[names]]
    if unknown:
        return f"names no {names} of this deployment: {unknown}"
    return None


class Nemesis:
    """Installs a campaign and records what actually happened, when."""

    def __init__(self, testbed, campaign: Campaign):
        self.testbed = testbed
        self.campaign = campaign
        self.log: List[NarrationEntry] = []
        self._installed = False

    def install(self) -> None:
        """Validate the campaign, then register it with the simulation clock.

        Every action is checked against the deployment before any is
        scheduled, so a campaign that names a server, cluster or region the
        testbed lacks is a :class:`CampaignError` here rather than a fault
        that silently hits nothing (or an exception mid-run).
        """
        if self._installed:
            raise CampaignError("this nemesis has already installed its campaign")
        config = self.testbed.config
        deployment = {"server": self.testbed.servers,
                      "cluster": config.cluster_names,
                      "regions": {c.region for c in config.clusters}}
        timeline = self.campaign.timeline()
        # A scale-in may retire any server of its cluster, so no later action
        # may crash or recover one of them.
        owner = {s: c.name for c in config.clusters for s in c.servers}
        shrunk = set()
        for action in timeline:
            problem = _problem(action, deployment)
            if action.kind in (CRASH, RECOVER) and owner.get(action.target) in shrunk:
                problem = "names a server an earlier scale-in may have retired"
            if problem:
                raise CampaignError(f"{action} {problem}")
            if action.kind == SCALE_IN:
                shrunk.add(action.target)
        self._installed = True
        for action in timeline:
            self.testbed.env.schedule(action.at_ms, self._fire, action)

    def _fire(self, action: CampaignAction) -> None:
        _, describe, apply = FAULTS[action.kind]
        apply(self.testbed, action)
        now = self.testbed.env.now
        entry = NarrationEntry(now, action.kind, describe(action),
                               _targets(action))
        self.log.append(entry)
        # The same structured record goes to the deployment's fault ledger,
        # which the trace joiner (spans overlapping this fault) and the
        # metrics time-series export (windows joined with chaos phases) read.
        self.testbed.faults.on_fault(entry.kind, entry.targets, now,
                                     entry.description)
