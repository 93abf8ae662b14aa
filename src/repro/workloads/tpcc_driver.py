"""The TPC-C generator: the five programs run through the simulated cluster.

:class:`TPCCDriver` is the one generator of TPC-C transactions (paper
Section 6.2), over the schema in :mod:`repro.workloads.tpcc`:

* Order ids, stock decrements, payment totals, and delivery billing are all
  **derived writes** (:meth:`repro.hat.transaction.Operation.derived_write`):
  the written value is computed from what the protocol's reads actually
  revealed, inside the transaction.  A serializable system therefore
  assigns dense sequential order ids and bills each delivery exactly once;
  a HAT system derives them from possibly stale reads — producing exactly
  the duplicate/gapped order ids and double deliveries Section 6.2
  predicts, which :func:`~repro.workloads.tpcc_audit.audit_tpcc_history`
  finds in the recorded history.
* The driver keeps an application-side mirror (:class:`TPCCMirror`) fed
  **only by commit results** via :meth:`TPCCDriver.observe` — never by
  generation-time assumptions.  The mirror models the shared application
  tier's deferred delivery queue: which orders are believed pending.
  Sharing the queue across clients is what makes double delivery
  *possible*; whether it actually happens is up to the protocol, which is
  the point.

:class:`TPCCDriverFactory` plugs the driver into the benchmark runner
(``RunConfig(workload=TPCCDriverFactory(...))``) and provides the initial
load plus an anti-entropy settle period.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hat.transaction import Operation, Transaction, TransactionResult
from repro.workloads.base import Workload, WorkloadFactory
from repro.workloads.tpcc import (
    DELIVERY,
    NEW_ORDER,
    ORDER_STATUS,
    PAYMENT,
    STOCK_LEVEL,
    TPCCConfig,
    customer_balance_key,
    district_next_oid_key,
    district_ytd_key,
    initial_load_transactions,
    new_order_key,
    order_key,
    order_line_key,
    stock_key,
    warehouse_ytd_key,
)

#: Status values written to ``new-order:<w>:<d>:<o>`` placeholders.
PENDING = "pending"
DELIVERED = "delivered"

NEW_ORDER_PREFIX = "new-order:"


def _as_oid(value: object) -> int:
    """Interpret a read of ``district-next-oid`` (initial bottom reads as 1)."""
    try:
        return max(1, int(value))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return 1


def _as_number(value: object, default: float = 0.0) -> float:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return default


def parse_new_order_key(key: str) -> Optional[Tuple[int, int, int]]:
    """``new-order:<w>:<d>:<o>`` -> ``(w, d, o)`` (None if not that key)."""
    if not key.startswith(NEW_ORDER_PREFIX):
        return None
    parts = key.split(":")
    return int(parts[1]), int(parts[2]), int(parts[3])


class TPCCMirror:
    """Shared application-side state, fed exclusively by commit results.

    One mirror is shared by every client of a run — it is the application
    tier's view of the database, not the database itself.  Nothing here
    influences what a transaction *writes* (order ids derive from reads
    inside the transaction); the mirror only steers workload choices:
    which orders look deliverable and which order to ask Order-Status
    about.
    """

    def __init__(self) -> None:
        #: (w, d) -> order ids observed claimed, in observation order.
        self.issued: Dict[Tuple[int, int], List[int]] = {}
        #: (w, d) -> order ids believed pending delivery (the shared queue).
        self.pending: Dict[Tuple[int, int], List[int]] = {}
        #: Committed transactions observed, per workload label.
        self.committed_by_type: Dict[str, int] = {}

    def observe(self, result: TransactionResult, label: Optional[str] = None) -> None:
        """Fold one finished transaction's outcome into the mirror."""
        if not result.committed:
            return
        if label:
            self.committed_by_type[label] = self.committed_by_type.get(label, 0) + 1
        for key, value in result.writes.items():
            order = parse_new_order_key(key)
            if order is None:
                continue
            w, d, oid = order
            if value == PENDING:
                self.issued.setdefault((w, d), []).append(oid)
                queue = self.pending.setdefault((w, d), [])
                if oid not in queue:
                    queue.append(oid)
            elif value == DELIVERED:
                queue = self.pending.get((w, d), [])
                if oid in queue:
                    queue.remove(oid)

    def districts_with_pending(self, warehouse: Optional[int] = None
                               ) -> List[Tuple[int, int]]:
        return [district for district, queue in sorted(self.pending.items())
                if queue and (warehouse is None or district[0] == warehouse)]

    def last_issued(self, w: int, d: int) -> int:
        issued = self.issued.get((w, d))
        return issued[-1] if issued else 1


class TPCCDriver(Workload):
    """One client's TPC-C stream over the key-value HAT store."""

    def __init__(self, config: TPCCConfig,
                 mirror: Optional[TPCCMirror] = None,
                 seed: int = 0, session_id: Optional[int] = None):
        self.config = config
        self._rng = random.Random(seed)
        self.session_id = session_id
        self.mirror = mirror or TPCCMirror()
        #: txn_id -> label, so observe() can attribute results.
        self._labels: Dict[int, str] = {}
        self._programs = {
            NEW_ORDER: self.new_order,
            PAYMENT: self.payment,
            ORDER_STATUS: self.order_status,
            DELIVERY: self.delivery,
            STOCK_LEVEL: self.stock_level,
        }

    # -- random pickers -----------------------------------------------------------
    def _pick_warehouse(self) -> int:
        return self._rng.randint(1, self.config.warehouses)

    def _pick_district(self) -> int:
        return self._rng.randint(1, self.config.districts_per_warehouse)

    def _pick_customer(self) -> int:
        return self._rng.randint(1, self.config.customers_per_district)

    def _pick_item(self) -> int:
        return self._rng.randint(1, self.config.items)

    # -- stream generation and result feedback ------------------------------------
    def next_transaction(self) -> Transaction:
        """Draw a program from the configured mix and generate it."""
        point = self._rng.random()
        cumulative = 0.0
        for program, share in self.config.mix.items():
            cumulative += share
            if point <= cumulative:
                return self._programs[program]()
        return self.new_order()

    def observe(self, result: TransactionResult) -> None:
        self.mirror.observe(result, label=self._labels.pop(result.txn_id, None))

    def _finish(self, operations: List[Operation], program: str) -> Transaction:
        """Label the transaction with its program so reports and auditors
        can group by it, and remember the label for :meth:`observe`."""
        transaction = Transaction(operations=operations,
                                  session_id=self.session_id, label=program)
        self._labels[transaction.txn_id] = program
        return transaction

    # -- transaction programs -----------------------------------------------------
    def new_order(self, warehouse: Optional[int] = None,
                  district: Optional[int] = None) -> Transaction:
        """New-Order with the order id *derived from the in-transaction read*.

        Reads the district's next-order-id counter and the ordered items'
        stock; writes the order, its lines, the decremented stock, a
        new-order placeholder and the incremented counter.  The id the
        transaction claims is whatever its counter read revealed — under
        serializable locking that read-modify-write is atomic and ids come
        out dense and sequential; under HAT execution concurrent claimants
        read the same (or stale) counter and collide, which is the Section
        6.2 anomaly.
        """
        w = warehouse if warehouse is not None else self._pick_warehouse()
        d = district if district is not None else self._pick_district()
        c = self._pick_customer()
        # Items are sampled *without* replacement: each line's stock
        # decrement derives from that line's own stock read, so a repeated
        # item would make two decrements share one base and lose one even
        # under serializable execution.
        line_count = min(self._rng.randint(1, self.config.max_order_lines),
                         self.config.items)
        items = self._rng.sample(range(1, self.config.items + 1), line_count)
        quantities = [self._rng.randint(1, 10) for _ in items]
        next_key = district_next_oid_key(w, d)

        operations: List[Operation] = [Operation.read(next_key)]
        for item in items:
            operations.append(Operation.read(stock_key(w, item)))

        def order_row(reads, w=w, d=d, c=c, items=tuple(items)):
            oid = _as_oid(reads.get(next_key))
            return order_key(w, d, oid), {"customer": c, "lines": len(items),
                                          "items": list(items)}

        operations.append(Operation.derived_write(order_row, key=order_key(w, d, 0)))
        for line, (item, quantity) in enumerate(zip(items, quantities), start=1):
            def order_line(reads, w=w, d=d, line=line, item=item, quantity=quantity):
                oid = _as_oid(reads.get(next_key))
                return (order_line_key(w, d, oid, line),
                        {"item": item, "quantity": quantity})

            def stock_update(reads, key=stock_key(w, item), quantity=quantity):
                level = int(_as_number(reads.get(key), 100.0))
                level -= quantity
                if level < 10:
                    # TPC-C restocks by 91 when the level would drop too low,
                    # which keeps the decrement monotone-safe (Section 6.2).
                    level += 91
                return key, level

            operations.append(Operation.derived_write(
                order_line, key=order_line_key(w, d, 0, line)))
            operations.append(Operation.derived_write(
                stock_update, key=stock_key(w, item)))

        def placeholder(reads, w=w, d=d):
            oid = _as_oid(reads.get(next_key))
            return new_order_key(w, d, oid), PENDING

        def bump_counter(reads, key=next_key):
            return key, _as_oid(reads.get(key)) + 1

        operations.append(Operation.derived_write(placeholder,
                                                  key=new_order_key(w, d, 0)))
        operations.append(Operation.derived_write(bump_counter, key=next_key))
        return self._finish(operations, NEW_ORDER)

    def payment(self, warehouse: Optional[int] = None) -> Transaction:
        """Payment: commutative increments derived from the observed totals."""
        w = warehouse if warehouse is not None else self._pick_warehouse()
        d = self._pick_district()
        c = self._pick_customer()
        amount = round(self._rng.uniform(1.0, 5000.0), 2)
        wh_key = warehouse_ytd_key(w)
        d_key = district_ytd_key(w, d)
        bal_key = customer_balance_key(w, d, c)

        def add(key, delta):
            def updated(reads, key=key, delta=delta):
                return key, round(_as_number(reads.get(key)) + delta, 2)
            return updated

        operations = [
            Operation.read(wh_key),
            Operation.read(d_key),
            Operation.read(bal_key),
            Operation.derived_write(add(wh_key, amount), key=wh_key),
            Operation.derived_write(add(d_key, amount), key=d_key),
            Operation.derived_write(add(bal_key, -amount), key=bal_key),
            Operation.write(f"payment-history:{w}:{d}:{c}:{self._rng.random():.12f}",
                            {"amount": amount}),
        ]
        return self._finish(operations, PAYMENT)

    def order_status(self) -> Transaction:
        """Order-Status: read-only; probes the latest order the mirror saw."""
        w, d = self._pick_warehouse(), self._pick_district()
        c = self._pick_customer()
        probe = self.mirror.last_issued(w, d)
        operations = [
            Operation.read(customer_balance_key(w, d, c)),
            Operation.read(order_key(w, d, probe)),
            Operation.read(order_line_key(w, d, probe, 1)),
        ]
        return self._finish(operations, ORDER_STATUS)

    def delivery(self, warehouse: Optional[int] = None) -> Transaction:
        """Delivery: bill the oldest pending order *iff its read says pending*.

        The order to deliver comes from the shared queue; whether the
        customer is billed depends on the in-transaction read of the
        order's status.  A serializable system therefore bills exactly
        once no matter how many workers race; a HAT system can read a
        stale ``pending`` and bill twice — Section 6.2's double delivery.
        """
        candidates = self.mirror.districts_with_pending(warehouse)
        if not candidates:
            w = warehouse if warehouse is not None else self._pick_warehouse()
            d = self._pick_district()
            return self._finish([Operation.read(new_order_key(w, d, 1))], DELIVERY)
        w, d = candidates[self._rng.randrange(len(candidates))]
        oid = self.mirror.pending[(w, d)][0]
        c = self._pick_customer()
        status_key = new_order_key(w, d, oid)
        bal_key = customer_balance_key(w, d, c)

        def mark_delivered(reads, key=status_key):
            return key, DELIVERED

        def bill(reads, status_key=status_key, bal_key=bal_key):
            balance = _as_number(reads.get(bal_key))
            if reads.get(status_key) == DELIVERED:
                return bal_key, balance  # already delivered: no second billing
            return bal_key, round(balance + 10.0, 2)

        operations = [
            Operation.read(status_key),
            Operation.derived_write(mark_delivered, key=status_key),
            Operation.read(bal_key),
            Operation.derived_write(bill, key=bal_key),
        ]
        return self._finish(operations, DELIVERY)

    def stock_level(self) -> Transaction:
        """Stock-Level: read-only scan over the counter and recent stock."""
        w, d = self._pick_warehouse(), self._pick_district()
        operations = [Operation.read(district_next_oid_key(w, d))]
        for _ in range(5):
            operations.append(Operation.read(stock_key(w, self._pick_item())))
        return self._finish(operations, STOCK_LEVEL)


def contended_tpcc_config() -> TPCCConfig:
    """The canonical contended scale the driver and benches default to.

    One warehouse with two districts concentrates New-Orders on two
    order-id counters, so even short simulated runs exhibit the contention
    Section 6.2 reasons about.
    """
    return TPCCConfig(warehouses=1, districts_per_warehouse=2,
                      customers_per_district=10, items=50, max_order_lines=3)


@dataclass
class TPCCDriverFactory(WorkloadFactory):
    """Builds per-client :class:`TPCCDriver` streams over one shared mirror."""

    config: TPCCConfig = field(default_factory=contended_tpcc_config)
    #: Simulated time for anti-entropy to replicate the preload everywhere
    #: (the EC2 model's worst two-region RTT is well under this).
    settle_ms = 400.0

    def __post_init__(self) -> None:
        self.mirror = TPCCMirror()

    def build(self, seed: int, session_id: int) -> TPCCDriver:
        return TPCCDriver(self.config, mirror=self.mirror,
                          seed=seed, session_id=session_id)

    def initial_transactions(self) -> List[Transaction]:
        return initial_load_transactions(self.config)
