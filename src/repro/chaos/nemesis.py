"""The nemesis: installs a chaos campaign into a testbed and narrates it.

Named after Jepsen's fault-injecting process, the nemesis is the bridge
between a data-only :class:`~repro.chaos.campaign.Campaign` and a running
simulation.  It compiles the campaign onto the testbed's fault schedule,
installs it with a fire-time observer, and keeps a narration log — the
``(simulated time, kind, description)`` record experiments attach to their
artifacts so a timeline plot can be read against what the nemesis did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.chaos.campaign import Campaign, compile_campaign
from repro.errors import ReproError
from repro.net.faults import FaultEvent, FaultSchedule


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
    #: global actions such as ``heal``).
    targets: Tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"[t={self.at_ms:9.1f} ms] {self.kind:>15}: {self.description}"

    def as_dict(self) -> dict:
        return {"at_ms": self.at_ms, "kind": self.kind,
                "description": self.description,
                "targets": list(self.targets)}


class Nemesis:
    """Installs a campaign and records what actually happened, when."""

    def __init__(self, testbed, campaign: Campaign):
        self.testbed = testbed
        self.campaign = campaign
        self.log: List[NarrationEntry] = []
        self._schedule: Optional[FaultSchedule] = None

    def install(self) -> FaultSchedule:
        """Compile and register the campaign with the simulation clock."""
        if self._schedule is not None:
            raise ReproError("this nemesis has already installed its campaign")
        self._schedule = compile_campaign(self.campaign, self.testbed)
        self._schedule.install(observer=self._narrate)
        return self._schedule

    @property
    def installed(self) -> bool:
        return self._schedule is not None

    def _narrate(self, event: FaultEvent) -> None:
        self.log.append(NarrationEntry(
            at_ms=self.testbed.env.now,
            kind=event.kind,
            description=event.description,
            targets=event.targets,
        ))
        # The same structured record goes to the deployment's fault ledger,
        # which the trace joiner (spans overlapping this fault) and the
        # metrics time-series export (windows joined with chaos phases) read.
        self.testbed.faults.on_fault(event.kind, event.targets,
                                     self.testbed.env.now, event.description)

    def phase_at(self, t_ms: float) -> Optional[str]:
        """The campaign phase active at ``t_ms`` (see :class:`Campaign`)."""
        return self.campaign.phase_at(t_ms)

    def narration(self) -> str:
        """The full narration log as printable text."""
        if not self.log:
            return "(nemesis idle: no fault has fired yet)"
        return "\n".join(str(entry) for entry in self.log)
