"""Checking a history against the models of :mod:`repro.taxonomy.models`.

Appendix A.3 (Definitions 17-41) specifies each level by the phenomena it
prohibits — the ``prohibits`` set of its row in the one table of models.
:func:`check_history` detects each phenomenon of a level once and reports
whether the history satisfies it, with witnesses for each violation.  A
stack's recorded history is checked against every model it claims by
:func:`repro.hat.protocols.verify_claims`, a lookup into one
:func:`check_all_levels` pass — that is how the integration tests verify
that, e.g., the MAV protocol's recorded histories really provide Monotonic
Atomic View, and nothing weaker it entails is broken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.adya.history import History
from repro.adya.phenomena import Witness, detect_each
from repro.errors import TaxonomyError
from repro.taxonomy.models import MODELS, ConsistencyModel

#: The models a recorded history can be checked against, in table order.
CHECKABLE: Dict[str, ConsistencyModel] = {
    code: m for code, m in MODELS.items() if m.prohibits is not None}


@dataclass
class CheckReport:
    """Result of checking one history against one isolation level."""

    level: ConsistencyModel
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


def _report(level: ConsistencyModel, found: Dict[str, List[Witness]]) -> CheckReport:
    violations = {phenomenon: witnesses for phenomenon, witnesses in found.items()
                  if witnesses and phenomenon in level.prohibits}
    return CheckReport(level=level, satisfied=not violations, violations=violations)


def check_history(history: History, level_name: str) -> CheckReport:
    """Check whether ``history`` satisfies the named isolation level."""
    if level_name not in CHECKABLE:
        if level_name in MODELS:
            raise TaxonomyError(
                f"{level_name!r} is in the table of models but has no phenomenon "
                "definition a recorded history can be checked against (real-time "
                f"order is not recorded); checkable: {sorted(CHECKABLE)}")
        raise TaxonomyError(f"unknown isolation level {level_name!r}; "
                            f"expected one of {sorted(CHECKABLE)}")
    level = CHECKABLE[level_name]
    return _report(level, detect_each(history, sorted(level.prohibits)))


def check_all_levels(history: History) -> Dict[str, CheckReport]:
    """Check the history against every checkable level, in one pass."""
    found = detect_each(history)
    return {code: _report(level, found) for code, level in CHECKABLE.items()}


def strongest_satisfied(history: History) -> List[str]:
    """Names of the levels the history satisfies (no violations detected)."""
    return sorted(code for code, report in check_all_levels(history).items()
                  if report.satisfied)
