"""The paper's 20 consistency models, one row each (Table 3, Figure 2, App. A.3).

Section 5 is one chain of reasoning: a model is a set of prohibited phenomena
(Appendix A.3), Figure 2 orders the models by strength, and Table 3 marks a
model unavailable *because* it prevents Lost Update or Write Skew or needs a
recency guarantee.  A row of :data:`MODELS` therefore states only what cannot
be derived — the models it is directly stronger than (Figure 2's edges), the
phenomena it adds to theirs, and the one sticky mark on ``RYW`` — and the
rest is read off the table: the full prohibited set, the downward closure,
the availability class and Table 3's footnote causes.  The order questions
Figure 2's caption asks of it — the availability of a combination of models,
and which combinations are achievable at all — are the module functions
after the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.adya.phenomena import (
    G0,
    G1A,
    G1B,
    G1C,
    IMP,
    LOST_UPDATE,
    MRWD,
    MYR,
    N_MR,
    N_MW,
    OTV,
    PMP,
    WRITE_SKEW,
)
from repro.errors import TaxonomyError

AVAILABLE = "highly available"
STICKY = "sticky available"
UNAVAILABLE = "unavailable"

#: Causes of unavailability (Table 3 footnote markers).
PREVENTS_LOST_UPDATE = "prevents lost update"
PREVENTS_WRITE_SKEW = "prevents write skew"
REQUIRES_RECENCY = "requires recency guarantee"


@dataclass(frozen=True)
class ConsistencyModel:
    """One node of Figure 2: what the paper states, and what follows from it."""

    code: str
    name: str
    kind: str  # "isolation", "session", "register", or "combination"
    #: The models this one is directly stronger than (Figure 2's edges into it).
    extends: Tuple[str, ...] = ()
    #: The phenomena it prohibits beyond those of the models it extends.
    adds: Tuple[str, ...] = ()
    adya_name: str = ""
    description: str = ""
    #: Table 3's sticky mark: achievable only while a client keeps reaching
    #: the same replicas (Section 5.1.3 states it of Read Your Writes alone).
    sticky: bool = False

    @cached_property
    def all_weaker(self) -> FrozenSet[str]:
        """Every strictly weaker model: Figure 2's edges, closed downward."""
        found, frontier = set(), list(self.extends)
        while frontier:
            code = frontier.pop()
            if code not in found:
                found.add(code)
                frontier.extend(MODELS[code].extends)
        return frozenset(found)

    @cached_property
    def _entails(self) -> List["ConsistencyModel"]:
        return [self, *(MODELS[code] for code in self.all_weaker)]

    @cached_property
    def unavailability_causes(self) -> Tuple[str, ...]:
        """Table 3's footnote markers (Section 5.2): the model or one it
        entails prevents Lost Update / Write Skew, or is a register model."""
        added = {phenomenon for m in self._entails for phenomenon in m.adds}
        causes = ((PREVENTS_LOST_UPDATE, LOST_UPDATE in added),
                  (PREVENTS_WRITE_SKEW, WRITE_SKEW in added),
                  (REQUIRES_RECENCY, any(m.kind == "register" for m in self._entails)))
        return tuple(cause for cause, holds in causes if holds)

    @cached_property
    def availability(self) -> str:
        """Table 3's class: that of the least available model entailed."""
        if self.unavailability_causes:
            return UNAVAILABLE
        return STICKY if any(m.sticky for m in self._entails) else AVAILABLE

    @property
    def is_hat(self) -> bool:
        """HAT-compliant: achievable with (at least sticky) high availability."""
        return self.availability != UNAVAILABLE

    @cached_property
    def prohibits(self) -> Optional[FrozenSet[str]]:
        """The App. A.3 definition: its own phenomena plus those of the weaker
        models of its kind.  None for a model that needs recency — real-time
        order is not in a recorded history, so no history can be checked
        against it."""
        if REQUIRES_RECENCY in self.unavailability_causes:
            return None
        return frozenset(phenomenon for m in self._entails if m.kind == self.kind
                         for phenomenon in m.adds)


#: Every model in Table 3 / Figure 2, keyed by its abbreviation.
MODELS: Dict[str, ConsistencyModel] = {m.code: m for m in (
    # Highly available (Table 3, first row).
    ConsistencyModel("RU", "Read Uncommitted", "isolation", (), (G0,), "PL-1",
                     "Total write order per item; prohibits Dirty Write."),
    ConsistencyModel("RC", "Read Committed", "isolation", ("RU",),
                     (G1A, G1B, G1C), "PL-2",
                     "Never read uncommitted or intermediate data."),
    ConsistencyModel("MAV", "Monotonic Atomic View", "isolation", ("RC",), (OTV,),
                     description="Once part of a transaction is visible, all of it is."),
    ConsistencyModel("I-CI", "Item Cut Isolation", "isolation", (), (IMP,),
                     description="Repeated item reads return the same value."),
    ConsistencyModel("P-CI", "Predicate Cut Isolation", "isolation", ("I-CI",),
                     (PMP,),
                     description="Repeated predicate reads return the same cut."),
    ConsistencyModel("WFR", "Writes Follow Reads", "session", (), (MRWD,),
                     description="Happens-before ordering of observed writes."),
    ConsistencyModel("MR", "Monotonic Reads", "session", (), (N_MR,),
                     description="Per-item reads never go backwards within a session."),
    ConsistencyModel("MW", "Monotonic Writes", "session", (), (N_MW,),
                     description="Session writes become visible in submission order."),
    # Sticky available (Table 3, second row).
    ConsistencyModel("RYW", "Read Your Writes", "session", (), (MYR,),
                     description="A session observes its own writes.", sticky=True),
    ConsistencyModel("PRAM", "PRAM", "session", ("MR", "MW", "RYW"),
                     description="MR + MW + RYW: per-session pipelining."),
    ConsistencyModel("Causal", "Causal Consistency", "session", ("WFR", "PRAM"),
                     adya_name="PL-2L", description="PRAM + WFR."),
    # Unavailable (Table 3, third row).
    ConsistencyModel("CS", "Cursor Stability", "isolation", ("RC",), (LOST_UPDATE,),
                     description="Prevents Lost Update on cursor items."),
    ConsistencyModel("SI", "Snapshot Isolation", "isolation", ("P-CI", "MAV"),
                     (LOST_UPDATE,),
                     description="Snapshot reads with first-committer-wins writes."),
    ConsistencyModel("RR", "Repeatable Read", "isolation", ("MAV", "CS", "I-CI"),
                     (WRITE_SKEW,), "PL-2.99",
                     "Adya's item-level repeatable read: prevents Lost Update "
                     "and Write Skew on items."),
    # Causal -> 1SR is the one Figure 2 edge where strength is not containment
    # of prohibited sets: Adya's PL-3 says nothing about sessions, so 1SR
    # inherits from RR and SI (its own kind) and not N-MR / N-MW / MYR / MRWD.
    ConsistencyModel("1SR", "One-Copy Serializability", "isolation",
                     ("RR", "SI", "Causal"), (), "PL-3",
                     "Equivalent to a serial execution over one logical copy."),
    ConsistencyModel("Recency", "Recency Bounds", "register",
                     description="Reads no staler than a fixed bound."),
    ConsistencyModel("Safe", "Safe Register", "register", ("Recency",),
                     description="Reads not concurrent with writes return the last value."),
    ConsistencyModel("Regular", "Regular Register", "register", ("Safe",),
                     description="Safe, plus concurrent reads return old or new value."),
    ConsistencyModel("Linearizable", "Linearizability", "register", ("Regular",),
                     description="Reads return the last completed write in real time."),
    ConsistencyModel("Strong-1SR", "Strong One-Copy Serializability", "combination",
                     ("Linearizable", "1SR"),
                     description="One-copy serializability plus linearizability."),
)}

#: Figure 2's directed edges (weaker -> stronger).
FIGURE_2_EDGES: List[Tuple[str, str]] = [
    (weaker, m.code) for m in MODELS.values() for weaker in m.extends]


def model(code: str) -> ConsistencyModel:
    """Look up a model by its Table 3 / Figure 2 abbreviation."""
    try:
        return MODELS[code]
    except KeyError:
        raise TaxonomyError(
            f"unknown model {code!r}; expected one of {sorted(MODELS)}"
        ) from None


def _check_acyclic() -> None:
    """Figure 2 is a partial order: no model is strictly weaker than itself."""
    if any(code in m.all_weaker for code, m in MODELS.items()):
        raise TaxonomyError("the model order must be acyclic")


_check_acyclic()


def combination_availability(codes: Iterable[str]) -> str:
    """Availability of simultaneously providing several models.

    "The availability of a combination of models has the availability of the
    least available individual model." (Figure 2 caption)  The rule reads
    only Table 3's classes, not the edges: the protocol registry classifies
    every spec through it.
    """
    ranking = (AVAILABLE, STICKY, UNAVAILABLE)
    return max((model(code).availability for code in codes),
               key=ranking.index, default=AVAILABLE)


def is_antichain(codes: Iterable[str]) -> bool:
    """True when no model in ``codes`` is comparable to (or repeats) another."""
    return not any(a == b or b in MODELS[a].all_weaker or a in MODELS[b].all_weaker
                   for a, b in combinations(list(codes), 2))


def hat_combinations() -> List[FrozenSet[str]]:
    """All non-empty antichains of HAT-compliant (HA or sticky) models.

    The paper's Figure 2 caption counts 144 such combinations for the models
    it depicts; the exact number depends on which nodes one treats as
    combinable, so the count is exposed rather than hard-coded.
    """
    hat_codes = sorted(code for code, m in MODELS.items() if m.is_hat)
    return [frozenset(subset)
            for size in range(1, len(hat_codes) + 1)
            for subset in combinations(hat_codes, size)
            if is_antichain(subset)]


def strongest_hat_combination() -> Set[str]:
    """The maximal HAT models: combining them all is still achievable.

    Section 5.3: "If we combine all HAT and sticky guarantees, we have
    transactional, causally consistent snapshot reads."
    """
    hat_codes = {code for code, m in MODELS.items() if m.is_hat}
    return {code for code in hat_codes
            if not any(code in MODELS[other].all_weaker for other in hat_codes)}


@dataclass
class AvailabilitySummary:
    """The three rows of Table 3."""

    highly_available: List[str] = field(default_factory=list)
    sticky_available: List[str] = field(default_factory=list)
    unavailable: List[str] = field(default_factory=list)
    #: code -> list of cause strings, for the unavailable models.
    causes: Dict[str, List[str]] = field(default_factory=dict)

    def as_table(self) -> str:
        """Render as text shaped like Table 3."""
        lines = [
            f"{'HA':<12} {', '.join(self.highly_available)}",
            f"{'Sticky':<12} {', '.join(self.sticky_available)}",
            f"{'Unavailable':<12} {', '.join(self.unavailable)}",
        ]
        lines += [f"  {code}: {', '.join(self.causes[code])}"
                  for code in self.unavailable]
        return "\n".join(lines)


def availability_summary() -> AvailabilitySummary:
    """Reproduce Table 3: models grouped by availability class."""
    summary = AvailabilitySummary()
    rows = {AVAILABLE: summary.highly_available, STICKY: summary.sticky_available,
            UNAVAILABLE: summary.unavailable}
    for code in sorted(MODELS):
        rows[MODELS[code].availability].append(code)
    summary.causes = {code: list(MODELS[code].unavailability_causes)
                      for code in summary.unavailable}
    return summary
