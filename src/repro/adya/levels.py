"""Isolation levels and consistency models as sets of prohibited phenomena.

Appendix A.3 (Definitions 17-41) specifies each level by the phenomena it
prohibits.  :func:`check_history` runs every relevant detector and reports
whether a history satisfies a level, with witnesses for each violation — this
is how the integration tests verify that, e.g., the MAV protocol's recorded
histories really provide Monotonic Atomic View.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List

from repro.adya.history import History
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
    PHENOMENA,
    PMP,
    WRITE_SKEW,
    Witness,
)
from repro.errors import TaxonomyError


@dataclass(frozen=True)
class IsolationLevel:
    """A named model defined by the phenomena it prohibits."""

    name: str
    prohibits: FrozenSet[str]
    adya_name: str = ""
    description: str = ""


def _level(name: str, prohibits, adya_name: str = "", description: str = "") -> IsolationLevel:
    return IsolationLevel(name=name, prohibits=frozenset(prohibits),
                          adya_name=adya_name, description=description)


#: Definitions 17-41, keyed by the abbreviations used in Table 3 / Figure 2.
ISOLATION_LEVELS: Dict[str, IsolationLevel] = {
    "RU": _level("Read Uncommitted", {G0}, "PL-1",
                 "Total order on writes per item (prohibits Dirty Write)."),
    "RC": _level("Read Committed", {G0, G1A, G1B, G1C}, "PL-2",
                 "Never read uncommitted or intermediate data."),
    "I-CI": _level("Item Cut Isolation", {IMP},
                   description="Repeated item reads return the same value."),
    "P-CI": _level("Predicate Cut Isolation", {IMP, PMP},
                   description="Repeated predicate reads return the same cut."),
    "MAV": _level("Monotonic Atomic View", {G0, G1A, G1B, G1C, OTV},
                  description="Once part of a transaction is visible, all of it is."),
    "MR": _level("Monotonic Reads", {N_MR},
                 description="Session reads never go backwards per item."),
    "MW": _level("Monotonic Writes", {N_MW},
                 description="Session writes install in submission order."),
    "WFR": _level("Writes Follow Reads", {MRWD},
                  description="Happens-before order on observed writes."),
    "RYW": _level("Read Your Writes", {MYR},
                  description="A session observes its own prior writes."),
    "PRAM": _level("PRAM", {N_MR, N_MW, MYR},
                   description="Per-session pipelined ordering (MR + MW + RYW)."),
    "Causal": _level("Causal Consistency", {N_MR, N_MW, MYR, MRWD}, "PL-2L",
                     description="PRAM plus writes-follow-reads."),
    "CS": _level("Cursor Stability", {G0, G1A, G1B, G1C, LOST_UPDATE},
                 description="Read Committed plus lost-update prevention on cursors."),
    "SI": _level("Snapshot Isolation",
                 {G0, G1A, G1B, G1C, IMP, PMP, OTV, LOST_UPDATE},
                 description="Transactions read from a snapshot; first-committer wins."),
    "RR": _level("Repeatable Read",
                 {G0, G1A, G1B, G1C, IMP, OTV, LOST_UPDATE, WRITE_SKEW}, "PL-2.99",
                 description="Adya's item-level repeatable read (prevents write skew)."),
    "1SR": _level("One-Copy Serializability",
                  {G0, G1A, G1B, G1C, IMP, PMP, OTV, LOST_UPDATE, WRITE_SKEW},
                  "PL-3", description="Equivalent to a serial execution on one copy."),
}


@dataclass
class CheckReport:
    """Result of checking one history against one isolation level."""

    level: IsolationLevel
    satisfied: bool
    violations: Dict[str, List[Witness]] = field(default_factory=dict)

    def witness_count(self) -> int:
        return sum(len(w) for w in self.violations.values())

    def __str__(self) -> str:
        status = "satisfied" if self.satisfied else "VIOLATED"
        lines = [f"{self.level.name}: {status}"]
        for phenomenon, witnesses in sorted(self.violations.items()):
            lines.append(f"  {phenomenon}: {len(witnesses)} witness(es)")
            for witness in witnesses[:3]:
                lines.append(f"    - {witness}")
        return "\n".join(lines)


def check_history(history: History, level_name: str) -> CheckReport:
    """Check whether ``history`` satisfies the named isolation level."""
    if level_name not in ISOLATION_LEVELS:
        raise TaxonomyError(
            f"unknown isolation level {level_name!r}; "
            f"expected one of {sorted(ISOLATION_LEVELS)}"
        )
    level = ISOLATION_LEVELS[level_name]
    violations: Dict[str, List[Witness]] = {}
    for phenomenon in level.prohibits:
        witnesses = PHENOMENA[phenomenon].detect(history)
        if witnesses:
            violations[phenomenon] = witnesses
    return CheckReport(level=level, satisfied=not violations, violations=violations)


def check_all_levels(history: History) -> Dict[str, CheckReport]:
    """Check the history against every known level."""
    return {name: check_history(history, name) for name in ISOLATION_LEVELS}


def strongest_satisfied(history: History) -> List[str]:
    """Names of the levels the history satisfies (no violations detected)."""
    return sorted(
        name for name, report in check_all_levels(history).items() if report.satisfied
    )
