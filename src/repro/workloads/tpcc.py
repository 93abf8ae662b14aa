"""The TPC-C schema on a key-value HAT store (paper Section 6.2).

This module is the schema every TPC-C user shares: the scale and mix
(:class:`TPCCConfig`), the composite key names, the initial load and the
names of the five programs.  The one generator that turns them into
transactions is :class:`~repro.workloads.tpcc_driver.TPCCDriver`.

Keys follow a simple composite naming convention::

    warehouse:<w>                  district:<w>:<d>
    stock:<w>:<i>                  payment-history:<w>:<d>:<c>:<nonce>
    order:<w>:<d>:<o>              order-line:<w>:<d>:<o>:<n>
    new-order:<w>:<d>:<o>          district-next-oid:<w>:<d>
    customer-balance:<w>:<d>:<c>   warehouse-ytd:<w>    district-ytd:<w>:<d>
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import WorkloadError
from repro.hat.transaction import Operation, Transaction

NEW_ORDER = "new-order"
PAYMENT = "payment"
ORDER_STATUS = "order-status"
DELIVERY = "delivery"
STOCK_LEVEL = "stock-level"


@dataclass
class TPCCConfig:
    """Scale and mix parameters.

    The mix maps program names to fractions of the workload.  Delivery is
    boosted well above TPC-C's standard 4% so short simulated runs exercise
    the double-delivery path.
    """

    warehouses: int = 2
    districts_per_warehouse: int = 10
    customers_per_district: int = 30
    items: int = 100
    max_order_lines: int = 5
    mix: Dict[str, float] = field(default_factory=lambda: {
        NEW_ORDER: 0.50,
        PAYMENT: 0.25,
        ORDER_STATUS: 0.05,
        DELIVERY: 0.15,
        STOCK_LEVEL: 0.05,
    })

    def __post_init__(self) -> None:
        for name in ("warehouses", "districts_per_warehouse",
                     "customers_per_district", "items", "max_order_lines"):
            value = getattr(self, name)
            if value < 1:
                raise WorkloadError(f"TPCCConfig.{name} must be >= 1, got {value!r}")
        unknown = sorted(set(self.mix) - {NEW_ORDER, PAYMENT, ORDER_STATUS,
                                          DELIVERY, STOCK_LEVEL})
        if unknown:
            raise WorkloadError(f"TPCCConfig.mix names no TPC-C program: {unknown}")
        negative = sorted(name for name, share in self.mix.items() if share < 0)
        if negative:
            raise WorkloadError(f"TPCCConfig.mix gives {negative} a negative share")
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-6:
            raise WorkloadError(f"TPCCConfig.mix must sum to 1.0, got {total}")


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
