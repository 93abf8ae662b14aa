"""A YCSB-style transactional workload (paper Section 6.3).

The paper links its client library to YCSB and groups "every eight YCSB
operations from the default workload (50% reads, 50% writes) to form a
transaction", with 100,000 keys, 1 KB values, and uniform key access.
:class:`YCSBWorkload` generates :class:`~repro.hat.transaction.Transaction`
objects with exactly those knobs, each exposed for the parameter sweeps of
Figures 4 and 5.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import WorkloadError
from repro.hat.transaction import READ, WRITE, Operation, Transaction
from repro.workloads.base import Workload
from repro.workloads.distributions import KeyChooser, UniformKeys, ZipfianKeys

#: ``Operation.read`` / ``.write`` without their frames (a drawn key is never empty).
_new_op = tuple.__new__


@dataclass
class YCSBConfig:
    """Workload shape parameters (doubles as the runner's workload factory)."""

    #: Operations grouped into one transaction (paper default: 8).
    operations_per_transaction: int = 8
    #: Fraction of operations that are writes (paper default: 0.5).
    write_proportion: float = 0.5
    #: Number of distinct keys (paper default: 100,000).
    key_count: int = 100_000
    #: Value payload size in bytes (paper default: 1 KB).
    value_bytes: int = 1024
    #: "uniform" (paper default) or "zipfian" (at YCSB's skew, 0.99).
    distribution: str = "uniform"

    def __post_init__(self) -> None:
        if self.operations_per_transaction < 1:
            raise WorkloadError("operations_per_transaction must be >= 1")
        if not 0.0 <= self.write_proportion <= 1.0:
            raise WorkloadError("write_proportion must be in [0, 1]")
        if self.key_count < 1:
            raise WorkloadError("key_count must be >= 1")
        if self.distribution not in ("uniform", "zipfian"):
            raise WorkloadError(f"unknown distribution {self.distribution!r}")

    # -- workload-factory shape (see repro.workloads.base) --------------------
    #: YCSB needs no preload: reads of unwritten keys observe the initial
    #: bottom version, exactly as in the paper's prototype.  (Unannotated on
    #: purpose — a class attribute, not a dataclass field.)
    settle_ms = 0.0

    def build(self, seed: int, session_id: int) -> "YCSBWorkload":
        """One per-client workload stream (the runner's factory hook)."""
        return YCSBWorkload(self, seed=seed, session_id=session_id)

    def arrival_source(self, seed: int) -> "YCSBArrivalSource":
        """Stateless per-arrival generation (the open-loop engine's hook)."""
        return YCSBArrivalSource(self, seed=seed)

    def initial_transactions(self) -> List[Transaction]:
        return []

    def key_chooser(self) -> KeyChooser:
        if self.distribution == "uniform":
            return UniformKeys(self.key_count)
        return ZipfianKeys(self.key_count)


class YCSBWorkload(Workload):
    """Generates transactions according to a :class:`YCSBConfig`."""

    def __init__(self, config: Optional[YCSBConfig] = None,
                 seed: int = 0, session_id: Optional[int] = None):
        self.config = config or YCSBConfig()
        self._rng = random.Random(seed)
        self.session_id = session_id
        self._chooser = self.config.key_chooser()
        self._value_counter = 0

    # -- generation ------------------------------------------------------------
    def next_transaction(self) -> Transaction:
        """Generate the next transaction in the stream."""
        operations: List[Operation] = []
        for _ in range(self.config.operations_per_transaction):
            key = self._chooser.key(self._rng)
            if self._rng.random() < self.config.write_proportion:
                self._value_counter += 1
                value = f"v{self._value_counter}"  # a tag: clients carry the size
                operations.append(_new_op(Operation, (WRITE, key, value, None, None, None)))
            else:
                operations.append(_new_op(Operation, (READ, key, None, None, None, None)))
        return Transaction(operations=operations, session_id=self.session_id)

    def transactions(self, count: int) -> List[Transaction]:
        """Generate ``count`` transactions."""
        return [self.next_transaction() for _ in range(count)]

    # -- preloading -----------------------------------------------------------------
    def load_keys(self, fraction: float = 0.01, limit: int = 1000) -> List[str]:
        """A deterministic subset of the keyspace for pre-loading stores."""
        count = min(limit, max(1, int(self.config.key_count * fraction)))
        return [f"user{index}" for index in range(count)]


class YCSBArrivalSource:
    """Stateless YCSB transaction generation for open-loop load.

    Each transaction is a pure function of ``(seed, user_id,
    arrival_index)``: a private RNG is reseeded per arrival, so a
    million-user run holds no per-user state while two arrivals by the same
    user still differ (and rerunning the same seed reproduces them
    bit-for-bit).  Written values are tagged with the user and arrival so
    anomaly audits can tell writers apart.
    """

    def __init__(self, config: Optional[YCSBConfig] = None, seed: int = 0):
        self.config = config or YCSBConfig()
        self.seed = seed
        self._rng = random.Random()
        self._chooser = self.config.key_chooser()

    def transaction_for(self, user_id: int, arrival_index: int) -> Transaction:
        rng = self._rng
        rng.seed(f"{self.seed}:{user_id}:{arrival_index}")
        operations: List[Operation] = []
        for op_index in range(self.config.operations_per_transaction):
            key = self._chooser.key(rng)
            if rng.random() < self.config.write_proportion:
                value = f"u{user_id}a{arrival_index}v{op_index}"
                operations.append(_new_op(Operation, (WRITE, key, value, None, None, None)))
            else:
                operations.append(_new_op(Operation, (READ, key, None, None, None, None)))
        return Transaction(operations=operations)
