"""TPC-C on a key-value HAT store (paper Section 6.2).

The paper analyses which TPC-C transactions can execute as HATs.  To make
that analysis executable we implement the TPC-C schema on top of the
key-value API and the five transaction programs as *operation-list builders*:
given the workload driver's view of the database they emit the reads and
writes of one New-Order, Payment, Order-Status, Delivery, or Stock-Level
transaction.

Keys follow a simple composite naming convention::

    warehouse:<w>                  district:<w>:<d>
    stock:<w>:<i>                  payment-history:<w>:<d>:<c>:<nonce>
    order:<w>:<d>:<o>              order-line:<w>:<d>:<o>:<n>
    new-order:<w>:<d>:<o>          district-next-oid:<w>:<d>
    customer-balance:<w>:<d>:<c>   warehouse-ytd:<w>    district-ytd:<w>:<d>

The driver keeps an application-side mirror of scalar counters (next order
id, balances, stock) so that read-modify-write transactions can be expressed
as a static operation list — exactly the structure whose anomalies
(non-sequential order ids, double deliveries) Section 6.2 predicts for HAT
execution and which the integration tests demonstrate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.hat.transaction import Operation, Transaction
from repro.workloads.base import Workload

NEW_ORDER = "new-order"
PAYMENT = "payment"
ORDER_STATUS = "order-status"
DELIVERY = "delivery"
STOCK_LEVEL = "stock-level"

TRANSACTION_TYPES = (NEW_ORDER, PAYMENT, ORDER_STATUS, DELIVERY, STOCK_LEVEL)

#: Standard TPC-C transaction mix (fractions of the workload).
DEFAULT_MIX: Dict[str, float] = {
    NEW_ORDER: 0.45,
    PAYMENT: 0.43,
    ORDER_STATUS: 0.04,
    DELIVERY: 0.04,
    STOCK_LEVEL: 0.04,
}


@dataclass
class TPCCConfig:
    """Scale and mix parameters."""

    warehouses: int = 2
    districts_per_warehouse: int = 10
    customers_per_district: int = 30
    items: int = 100
    max_order_lines: int = 5
    mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))

    def __post_init__(self) -> None:
        if self.warehouses < 1 or self.districts_per_warehouse < 1:
            raise WorkloadError("TPC-C needs at least one warehouse and district")
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-6:
            raise WorkloadError(f"transaction mix must sum to 1.0, got {total}")


# -- key naming ----------------------------------------------------------------------

def warehouse_key(w: int) -> str:
    return f"warehouse:{w}"


def warehouse_ytd_key(w: int) -> str:
    return f"warehouse-ytd:{w}"


def district_key(w: int, d: int) -> str:
    return f"district:{w}:{d}"


def district_ytd_key(w: int, d: int) -> str:
    return f"district-ytd:{w}:{d}"


def district_next_oid_key(w: int, d: int) -> str:
    return f"district-next-oid:{w}:{d}"


def customer_balance_key(w: int, d: int, c: int) -> str:
    return f"customer-balance:{w}:{d}:{c}"


def stock_key(w: int, i: int) -> str:
    return f"stock:{w}:{i}"


def order_key(w: int, d: int, o: int) -> str:
    return f"order:{w}:{d}:{o}"


def order_line_key(w: int, d: int, o: int, line: int) -> str:
    return f"order-line:{w}:{d}:{o}:{line}"


def new_order_key(w: int, d: int, o: int) -> str:
    return f"new-order:{w}:{d}:{o}"


@dataclass
class TPCCState:
    """The workload driver's application-side mirror of scalar state.

    In a real deployment this state lives in the database and each
    transaction reads it before writing; mirroring it in the driver lets the
    transaction programs emit static operation lists.  The mirror is also the
    oracle the consistency-condition checkers compare against.
    """

    config: TPCCConfig
    next_order_id: Dict[Tuple[int, int], int] = field(default_factory=dict)
    stock_level: Dict[Tuple[int, int], int] = field(default_factory=dict)
    customer_balance: Dict[Tuple[int, int, int], float] = field(default_factory=dict)
    warehouse_ytd: Dict[int, float] = field(default_factory=dict)
    district_ytd: Dict[Tuple[int, int], float] = field(default_factory=dict)
    pending_orders: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)
    issued_order_ids: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cfg = self.config
        for w in range(1, cfg.warehouses + 1):
            self.warehouse_ytd[w] = 0.0
            for i in range(1, cfg.items + 1):
                self.stock_level[(w, i)] = 100
            for d in range(1, cfg.districts_per_warehouse + 1):
                self.next_order_id[(w, d)] = 1
                self.district_ytd[(w, d)] = 0.0
                self.pending_orders[(w, d)] = []
                self.issued_order_ids[(w, d)] = []
                for c in range(1, cfg.customers_per_district + 1):
                    self.customer_balance[(w, d, c)] = 0.0


def initial_load_transactions(config: TPCCConfig) -> List[Transaction]:
    """Static transactions that populate the initial TPC-C contents."""
    transactions: List[Transaction] = []
    for w in range(1, config.warehouses + 1):
        transactions.append(Transaction([
            Operation.write(warehouse_key(w), {"name": f"W{w}"}),
            Operation.write(warehouse_ytd_key(w), 0.0),
        ], label="load"))
        transactions.append(Transaction([
            Operation.write(stock_key(w, i), 100)
            for i in range(1, config.items + 1)
        ], label="load"))
        for d in range(1, config.districts_per_warehouse + 1):
            operations = [
                Operation.write(district_key(w, d), {"name": f"D{w}.{d}"}),
                Operation.write(district_ytd_key(w, d), 0.0),
                Operation.write(district_next_oid_key(w, d), 1),
            ]
            operations.extend(
                Operation.write(customer_balance_key(w, d, c), 0.0)
                for c in range(1, config.customers_per_district + 1)
            )
            transactions.append(Transaction(operations, label="load"))
    return transactions


class TPCCStream(Workload):
    """What the static generator and the live driver share.

    One seeded RNG, the four pickers, the read-only Stock-Level program and
    the mix draw; a subclass supplies ``new_order``, ``payment``,
    ``order_status`` and ``delivery``.
    """

    def __init__(self, config: TPCCConfig, seed: int,
                 session_id: Optional[int]):
        self.config = config
        self._rng = random.Random(seed)
        self.session_id = session_id

    # -- random pickers -----------------------------------------------------------
    def _pick_warehouse(self) -> int:
        return self._rng.randint(1, self.config.warehouses)

    def _pick_district(self) -> int:
        return self._rng.randint(1, self.config.districts_per_warehouse)

    def _pick_customer(self) -> int:
        return self._rng.randint(1, self.config.customers_per_district)

    def _pick_item(self) -> int:
        return self._rng.randint(1, self.config.items)

    def stock_level(self) -> Transaction:
        """Stock-Level: read-only scan over the counter and recent stock."""
        w, d = self._pick_warehouse(), self._pick_district()
        operations = [Operation.read(district_next_oid_key(w, d))]
        for _ in range(5):
            operations.append(Operation.read(stock_key(w, self._pick_item())))
        return self._finish(operations, STOCK_LEVEL)

    # -- stream generation --------------------------------------------------------
    def next_transaction(self) -> Transaction:
        """Draw a transaction type from the configured mix and generate it."""
        point = self._rng.random()
        cumulative = 0.0
        for txn_type, fraction in self.config.mix.items():
            cumulative += fraction
            if point <= cumulative:
                return self._generate(txn_type)
        return self._generate(NEW_ORDER)

    def _generate(self, txn_type: str) -> Transaction:
        generators = {
            NEW_ORDER: self.new_order,
            PAYMENT: self.payment,
            ORDER_STATUS: self.order_status,
            DELIVERY: self.delivery,
            STOCK_LEVEL: self.stock_level,
        }
        return generators[txn_type]()

    def _finish(self, operations: List[Operation], txn_type: str) -> Transaction:
        """Label the transaction with its type so reports and auditors can
        group by program."""
        return Transaction(operations=operations, session_id=self.session_id,
                           label=txn_type)


class TPCCWorkload(TPCCStream):
    """Generates TPC-C transactions as static operation lists."""

    def __init__(self, config: Optional[TPCCConfig] = None, seed: int = 0,
                 session_id: Optional[int] = None):
        super().__init__(config or TPCCConfig(), seed, session_id)
        self.state = TPCCState(self.config)

    # -- transaction programs -----------------------------------------------------
    def new_order(self, warehouse: Optional[int] = None,
                  district: Optional[int] = None) -> Transaction:
        """The New-Order transaction (Section 6.2's "IDs and decrements").

        Reads the district's next order id and the stock of the ordered
        items, writes the order, its order lines, a new-order placeholder,
        the decremented stock, and the incremented next order id.  The id
        assignment is the step that needs lost-update prevention to be
        TPC-C-compliant; HAT systems can only guarantee uniqueness.
        """
        w = warehouse if warehouse is not None else self._pick_warehouse()
        d = district if district is not None else self._pick_district()
        c = self._pick_customer()
        order_id = self.state.next_order_id[(w, d)]
        line_count = self._rng.randint(1, self.config.max_order_lines)
        items = [self._pick_item() for _ in range(line_count)]

        operations: List[Operation] = [
            Operation.read(district_next_oid_key(w, d)),
        ]
        for item in items:
            operations.append(Operation.read(stock_key(w, item)))
        operations.append(Operation.write(
            order_key(w, d, order_id),
            {"customer": c, "lines": line_count, "items": items},
        ))
        for line, item in enumerate(items, start=1):
            quantity = self._rng.randint(1, 10)
            operations.append(Operation.write(
                order_line_key(w, d, order_id, line),
                {"item": item, "quantity": quantity},
            ))
            new_stock = self.state.stock_level[(w, item)] - quantity
            if new_stock < 10:
                # TPC-C restocks by 91 when the level would drop too low,
                # which keeps the decrement monotone-safe (Section 6.2).
                new_stock += 91
            self.state.stock_level[(w, item)] = new_stock
            operations.append(Operation.write(stock_key(w, item), new_stock))
        operations.append(Operation.write(new_order_key(w, d, order_id), "pending"))
        operations.append(Operation.write(district_next_oid_key(w, d), order_id + 1))

        self.state.next_order_id[(w, d)] = order_id + 1
        self.state.pending_orders[(w, d)].append(order_id)
        self.state.issued_order_ids[(w, d)].append(order_id)
        return self._finish(operations, NEW_ORDER)

    def payment(self, warehouse: Optional[int] = None) -> Transaction:
        """The Payment transaction: monotone increments plus an audit record."""
        w = warehouse if warehouse is not None else self._pick_warehouse()
        d = self._pick_district()
        c = self._pick_customer()
        amount = round(self._rng.uniform(1.0, 5000.0), 2)

        new_wh_ytd = self.state.warehouse_ytd[w] + amount
        new_d_ytd = self.state.district_ytd[(w, d)] + amount
        new_balance = self.state.customer_balance[(w, d, c)] - amount
        self.state.warehouse_ytd[w] = new_wh_ytd
        self.state.district_ytd[(w, d)] = new_d_ytd
        self.state.customer_balance[(w, d, c)] = new_balance

        operations = [
            Operation.read(warehouse_ytd_key(w)),
            Operation.read(district_ytd_key(w, d)),
            Operation.read(customer_balance_key(w, d, c)),
            Operation.write(warehouse_ytd_key(w), new_wh_ytd),
            Operation.write(district_ytd_key(w, d), new_d_ytd),
            Operation.write(customer_balance_key(w, d, c), new_balance),
            Operation.write(f"payment-history:{w}:{d}:{c}:{self._rng.random():.12f}",
                            {"amount": amount}),
        ]
        return self._finish(operations, PAYMENT)

    def order_status(self) -> Transaction:
        """Order-Status: read-only; always HAT-executable."""
        w, d = self._pick_warehouse(), self._pick_district()
        c = self._pick_customer()
        issued = self.state.issued_order_ids[(w, d)]
        order_id = issued[-1] if issued else 1
        operations = [
            Operation.read(customer_balance_key(w, d, c)),
            Operation.read(order_key(w, d, order_id)),
            Operation.read(order_line_key(w, d, order_id, 1)),
        ]
        return self._finish(operations, ORDER_STATUS)

    def delivery(self, warehouse: Optional[int] = None) -> Transaction:
        """Delivery: pops a pending order (non-monotonic, Section 6.2)."""
        w = warehouse if warehouse is not None else self._pick_warehouse()
        d = self._pick_district()
        pending = self.state.pending_orders[(w, d)]
        if not pending:
            # Nothing to deliver: degrade to a read-only probe of the queue.
            return self._finish([Operation.read(new_order_key(w, d, 1))], DELIVERY)
        order_id = pending.pop(0)
        c = self._pick_customer()
        new_balance = self.state.customer_balance[(w, d, c)] + 10.0
        self.state.customer_balance[(w, d, c)] = new_balance
        operations = [
            Operation.read(new_order_key(w, d, order_id)),
            Operation.write(new_order_key(w, d, order_id), "delivered"),
            Operation.read(order_key(w, d, order_id)),
            Operation.write(order_key(w, d, order_id),
                            {"carrier": self._rng.randint(1, 10)}),
            Operation.write(customer_balance_key(w, d, c), new_balance),
        ]
        return self._finish(operations, DELIVERY)
