"""HAT-compliance analysis of TPC-C (paper Section 6.2).

The paper's conclusion: "four of five transactions can be executed via HATs,
while the fifth requires unavailability" — Order-Status and Stock-Level are
read-only, Payment is monotone (commutative increments plus an append-only
audit trail), New-Order is achievable except for *sequential* order-id
assignment (uniqueness is achievable, sequencing needs lost-update
prevention), and Delivery is non-monotonic (idempotent order removal needs
lost-update prevention or real-world compensation).

This module encodes that analysis as data (:data:`TPCC_TRANSACTION_PROFILES`)
and renders it as the ``tpcc`` artifact's table.  Whether a run actually
shows the predicted anomalies is measured on the store, not here: see
:func:`~repro.workloads.tpcc_audit.audit_tpcc_history`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.workloads.tpcc import (
    DELIVERY,
    NEW_ORDER,
    ORDER_STATUS,
    PAYMENT,
    STOCK_LEVEL,
)


@dataclass(frozen=True)
class TransactionProfile:
    """Semantic requirements of one TPC-C transaction type."""

    name: str
    read_only: bool
    monotonic: bool
    requires_sequential_ids: bool
    requires_lost_update_prevention: bool
    hat_executable: bool
    weakest_sufficient_model: str
    notes: str


TPCC_TRANSACTION_PROFILES: Dict[str, TransactionProfile] = {
    ORDER_STATUS: TransactionProfile(
        name=ORDER_STATUS, read_only=True, monotonic=True,
        requires_sequential_ids=False, requires_lost_update_prevention=False,
        hat_executable=True, weakest_sufficient_model="RC",
        notes="Read-only; stale reads are permitted by TPC-C; sticky clients "
              "read their own writes.",
    ),
    STOCK_LEVEL: TransactionProfile(
        name=STOCK_LEVEL, read_only=True, monotonic=True,
        requires_sequential_ids=False, requires_lost_update_prevention=False,
        hat_executable=True, weakest_sufficient_model="RC",
        notes="Read-only analytics over stock and recent orders.",
    ),
    PAYMENT: TransactionProfile(
        name=PAYMENT, read_only=False, monotonic=True,
        requires_sequential_ids=False, requires_lost_update_prevention=False,
        hat_executable=True, weakest_sufficient_model="MAV",
        notes="Increment/append-only: balance updates commute; MAV keeps the "
              "warehouse/district/customer rows mutually consistent.",
    ),
    NEW_ORDER: TransactionProfile(
        name=NEW_ORDER, read_only=False, monotonic=False,
        requires_sequential_ids=True, requires_lost_update_prevention=True,
        hat_executable=True, weakest_sufficient_model="MAV",
        notes="Executable as a HAT with unique (client-id based) order ids; "
              "TPC-C's *sequential* district order ids require preventing "
              "Lost Update and are therefore unavailable.",
    ),
    DELIVERY: TransactionProfile(
        name=DELIVERY, read_only=False, monotonic=False,
        requires_sequential_ids=False, requires_lost_update_prevention=True,
        hat_executable=False, weakest_sufficient_model="1SR",
        notes="Deleting a pending order exactly once (idempotent billing) "
              "requires preventing Lost Update, or a real-world compensation "
              "(the carrier picks up each package once).",
    ),
}


def hat_compliance_table() -> str:
    """Render the Section 6.2 analysis as text."""
    header = (f"{'Transaction':<14} {'Read-only':>9} {'Monotonic':>9} "
              f"{'HAT?':>5} {'Sufficient model':>17}")
    lines = [header, "-" * len(header)]
    for profile in TPCC_TRANSACTION_PROFILES.values():
        lines.append(
            f"{profile.name:<14} {str(profile.read_only):>9} "
            f"{str(profile.monotonic):>9} {str(profile.hat_executable):>5} "
            f"{profile.weakest_sufficient_model:>17}"
        )
    return "\n".join(lines)


def hat_executable_count() -> Tuple[int, int]:
    """(HAT-executable transaction types, total types) — the paper's 4-of-5."""
    executable = sum(1 for p in TPCC_TRANSACTION_PROFILES.values() if p.hat_executable)
    return executable, len(TPCC_TRANSACTION_PROFILES)

