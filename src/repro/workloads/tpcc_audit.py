"""Audit recorded histories for TPC-C's Section 6.2 anomalies.

The paper predicts two concrete consequences of running TPC-C as HATs:

* **Order-id anomalies** — TPC-C Consistency Conditions 2-3 require each
  district's order ids to be densely sequential.  Assigning them needs
  lost-update prevention, which is unavailable; concurrent HAT New-Orders
  claim *duplicate* ids and leave *gaps*.
* **Double deliveries** — removing an order from the new-order queue
  exactly once also needs lost-update prevention; two HAT delivery
  workers can both observe an order as pending and both bill it.

This auditor derives both anomaly families from an
:class:`~repro.adya.history.History` recorded by a live run (the same
structure the Adya isolation checkers consume), using only committed
transactions:

* a New-Order *claim* is a committed write of ``new-order:<w>:<d>:<o>``
  with value ``"pending"`` — the id the transaction actually took;
* a *billing delivery* is a committed transaction that wrote
  ``new-order:<w>:<d>:<o> = "delivered"`` after reading any status other
  than ``"delivered"`` for that order (i.e. it believed the order was
  still pending and billed the customer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.adya.history import History
from repro.workloads.tpcc_driver import (
    DELIVERED,
    PENDING,
    parse_new_order_key,
)

District = Tuple[int, int]


@dataclass
class TPCCAnomalyReport:
    """Order-id and delivery anomalies found in one recorded history."""

    #: (w, d) -> order ids claimed by committed New-Orders, in commit order.
    claims: Dict[District, List[int]] = field(default_factory=dict)
    #: (w, d, oid) -> txn ids of committed New-Orders that claimed that id.
    claimants: Dict[Tuple[int, int, int], List[int]] = field(default_factory=dict)
    #: (w, d, oid) -> txn ids of committed deliveries that billed that order.
    billings: Dict[Tuple[int, int, int], List[int]] = field(default_factory=dict)

    # -- derived ------------------------------------------------------------------
    @property
    def orders_claimed(self) -> int:
        return sum(len(ids) for ids in self.claims.values())

    @property
    def duplicate_order_ids(self) -> List[Tuple[int, int, int]]:
        """Orders whose id was claimed by more than one committed New-Order."""
        return sorted(order for order, txns in self.claimants.items()
                      if len(txns) > 1)

    @property
    def gapped_order_ids(self) -> List[Tuple[int, int, int]]:
        """Ids skipped below each district's highest claimed id."""
        gaps: List[Tuple[int, int, int]] = []
        for (w, d), ids in sorted(self.claims.items()):
            if not ids:
                continue
            claimed = set(ids)
            gaps.extend((w, d, oid) for oid in range(1, max(claimed) + 1)
                        if oid not in claimed)
        return gaps

    @property
    def double_deliveries(self) -> List[Tuple[int, int, int]]:
        """Orders billed by more than one committed delivery."""
        return sorted(order for order, txns in self.billings.items()
                      if len(txns) > 1)

    @property
    def order_id_anomalies(self) -> int:
        """Duplicate plus gapped ids — the sequential-id violation count."""
        return len(self.duplicate_order_ids) + len(self.gapped_order_ids)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-safe summary (counts plus the offending orders)."""
        return {
            "orders_claimed": self.orders_claimed,
            "duplicate_order_ids": len(self.duplicate_order_ids),
            "gapped_order_ids": len(self.gapped_order_ids),
            "double_deliveries": len(self.double_deliveries),
            "order_id_anomalies": self.order_id_anomalies,
            "duplicates": [list(order) for order in self.duplicate_order_ids],
            "gaps": [list(order) for order in self.gapped_order_ids],
            "double_delivered": [list(order) for order in self.double_deliveries],
        }


def audit_tpcc_history(history: History) -> TPCCAnomalyReport:
    """Scan a recorded history for duplicate/gapped ids and double billings."""
    report = TPCCAnomalyReport()
    for txn in sorted(history.committed(), key=lambda t: t.commit_order):
        status_reads: Dict[Tuple[int, int, int], object] = {}
        for read in txn.reads:
            order = parse_new_order_key(read.key)
            if order is not None:
                status_reads[order] = read.value
        for write in txn.writes:
            order = parse_new_order_key(write.key)
            if order is None:
                continue
            w, d, oid = order
            if write.value == PENDING:
                report.claims.setdefault((w, d), []).append(oid)
                report.claimants.setdefault(order, []).append(txn.txn_id)
            elif write.value == DELIVERED:
                if status_reads.get(order, None) != DELIVERED:
                    report.billings.setdefault(order, []).append(txn.txn_id)
    return report
