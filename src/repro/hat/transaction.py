"""Transactions, operations, and results.

The paper's model (Appendix A.1): a transaction is a sequence of reads and
writes over data items (plus predicate-based reads), ending in exactly one
commit or abort.  ``Operation`` captures one step; ``TransactionResult`` is
what a protocol client hands back, including the versions read so that the
Adya checker can reconstruct the history.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.errors import WorkloadError
from repro.storage.records import Timestamp, Version

READ = "read"
WRITE = "write"
SCAN = "scan"

_TXN_IDS = itertools.count(1)
_new_tuple = tuple.__new__


class _OperationFields(NamedTuple):
    kind: str
    key: Optional[str] = None
    value: Any = None
    #: For ``scan`` operations: predicate over ``(key, value)``.
    predicate: Optional[Callable[[str, Any], bool]] = None
    #: Human-readable predicate label, used in histories and reports.
    predicate_name: Optional[str] = None
    #: For derived writes: ``(reads so far) -> (key, value)``, resolved by the
    #: protocol client at execution time (see :func:`resolve_derived`).
    derive: Optional[Callable[[Dict[str, Any]], "tuple"]] = None


class Operation(_OperationFields):
    """One read, write, or predicate read within a transaction (a tuple:
    each transaction builds about eight).  Direct construction checks every
    field; the keyed constructors below check the key and skip the rest."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "Operation":
        op = super().__new__(cls, *args, **kwargs)
        kind = op.kind
        if kind == READ or kind == WRITE:  # the common kinds first
            if not op.key:
                raise WorkloadError(f"{kind} operation requires a key")
            if op.derive is not None and kind != WRITE:
                raise WorkloadError("only write operations can be derived")
        elif kind != SCAN:
            raise WorkloadError(f"unknown operation kind {kind!r}")
        elif op.predicate is None:
            raise WorkloadError("scan operation requires a predicate")
        elif op.derive is not None:
            raise WorkloadError("only write operations can be derived")
        return op

    # -- constructors -----------------------------------------------------------
    @staticmethod
    def read(key: str) -> "Operation":
        """Read the current visible version of ``key``."""
        if not key:
            raise WorkloadError(f"{READ} operation requires a key")
        return _new_tuple(Operation, (READ, key, None, None, None, None))

    @staticmethod
    def write(key: str, value: Any) -> "Operation":
        """Write ``value`` to ``key``."""
        if not key:
            raise WorkloadError(f"{WRITE} operation requires a key")
        return _new_tuple(Operation, (WRITE, key, value, None, None, None))

    @staticmethod
    def derived_write(fn: Callable[[Dict[str, Any]], "tuple"],
                      key: str = "<derived>") -> "Operation":
        """A write whose key and value depend on this transaction's reads.

        ``fn`` receives a dict of the values the transaction has observed so
        far (last read per key) and returns the ``(key, value)`` to write.
        This is the operation-list encoding of an *interactive* read-modify-
        write: the written value is a function of what the protocol actually
        revealed, so a serializable system derives the correct successor
        value while a weakly consistent one derives it from a stale read —
        which is exactly how TPC-C's sequential-order-id and exactly-once
        delivery requirements fail under HAT execution (paper Section 6.2).
        ``key`` is only a placeholder label until the client resolves it.
        """
        if not key:
            raise WorkloadError(f"{WRITE} operation requires a key")
        return _new_tuple(Operation, (WRITE, key, None, None, None, fn))

    @staticmethod
    def scan(predicate: Callable[[str, Any], bool], name: str = "predicate") -> "Operation":
        """Predicate-based read (``SELECT WHERE``-style)."""
        return Operation(kind=SCAN, predicate=predicate, predicate_name=name)

    @property
    def is_read(self) -> bool:
        return self.kind == READ

    @property
    def is_write(self) -> bool:
        return self.kind == WRITE

    @property
    def is_scan(self) -> bool:
        return self.kind == SCAN

    @property
    def is_derived(self) -> bool:
        return self.derive is not None


@dataclass(slots=True)
class Transaction:
    """A client-submitted group of operations."""

    operations: List[Operation]
    txn_id: int = field(default_factory=_TXN_IDS.__next__)
    session_id: Optional[int] = None
    #: Optional workload-level tag (e.g. a TPC-C transaction type); carried
    #: into recorded histories so auditors can group by program.
    label: Optional[str] = None
    #: Trace context of this transaction's root span (set by a traced
    #: client at execute time; None whenever tracing is off).
    trace: Optional[object] = None

    def __post_init__(self) -> None:
        if not self.operations:
            raise WorkloadError("a transaction needs at least one operation")

    @property
    def read_keys(self) -> List[str]:
        return [op.key for op in self.operations if op.is_read]

    @property
    def write_keys(self) -> List[str]:
        return [op.key for op in self.operations if op.is_write]

    @property
    def write_set(self) -> Dict[str, Any]:
        """Final written value per key (last write wins within the txn)."""
        return {op.key: op.value for op in self.operations if op.kind == WRITE}

    def accessed_keys(self) -> List[str]:
        """Every key named by a read or write, deduplicated, in order."""
        seen: Dict[str, None] = {}
        for op in self.operations:
            if op.key is not None:
                seen.setdefault(op.key, None)
        return list(seen)


@dataclass(slots=True)
class ReadObservation:
    """One value observed by a committed read."""

    key: str
    version: Version

    @property
    def value(self) -> Any:
        return self.version.value


@dataclass(slots=True)
class TransactionResult:
    """Outcome of executing a transaction through a protocol client."""

    txn_id: int
    committed: bool
    protocol: str
    timestamp: Optional[Timestamp] = None
    session_id: Optional[int] = None
    reads: List[ReadObservation] = field(default_factory=list)
    scan_results: List[List[Version]] = field(default_factory=list)
    writes: Dict[str, Any] = field(default_factory=dict)
    start_ms: float = 0.0
    end_ms: float = 0.0
    error: Optional[str] = None
    #: ``True`` when an abort was the transaction's own choice (internal).
    internal_abort: bool = False
    #: Number of round trips to remote (non-sticky) servers, for diagnostics.
    remote_rpcs: int = 0

    @property
    def latency_ms(self) -> float:
        """Wall-clock (simulated) latency of the whole transaction."""
        return self.end_ms - self.start_ms

    def value_read(self, key: str) -> Any:
        """The last value this transaction read for ``key`` (None if never)."""
        value = None
        for observation in self.reads:
            if observation.key == key:
                value = observation.value
        return value


def observed_values(result: TransactionResult) -> Dict[str, Any]:
    """The last value observed per key by ``result``'s reads so far."""
    values: Dict[str, Any] = {}
    for observation in result.reads:
        values[observation.key] = observation.value
    return values


def resolve_derived(transaction: Transaction, op: Operation,
                    result: TransactionResult) -> Operation:
    """Resolve a derived write against the reads observed so far.

    Returns ``op`` unchanged for plain operations.  For a derived write the
    derive function is evaluated over the transaction's read observations to
    date and the operation is replaced *in place* inside
    ``transaction.operations``, so that ``write_set`` (and therefore recorded
    histories) reflect what was actually written.  Every protocol client
    calls this at the moment it is about to apply or buffer a write — after
    the reads that precede it in the operation list have completed under
    that protocol's visibility rules.
    """
    if op.derive is None:
        return op
    key, value = op.derive(observed_values(result))
    resolved = Operation.write(key, value)
    for index, existing in enumerate(transaction.operations):
        if existing is op:
            transaction.operations[index] = resolved
            break
    return resolved
