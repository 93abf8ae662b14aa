"""Histories: transactions, events, version orders, and sessions.

A history has two parts (Adya, Section 3.1; paper Appendix A.1): a partial
order of events per transaction and a total *version order* on the committed
versions of each object.  We additionally group transactions into sessions
(the paper's departure from Adya) so session guarantees can be expressed.

Two ways to build a history:

* :class:`HistoryBuilder` — write the paper's example histories by hand
  (used heavily in tests),
* :class:`HistoryRecorder` — attach to protocol clients; every committed (or
  aborted) :class:`~repro.hat.transaction.TransactionResult` becomes a
  history transaction, with the version order taken from write timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import IsolationError
from repro.sim.events import gc_paused

#: Writer id used for the initial (bottom) version of every item.
INITIAL = None


@dataclass(slots=True)
class ReadEvent:
    """One read: which transaction's write (by key) was observed."""

    key: str
    writer_txn: Optional[int]
    value: Any = None
    #: Position of this event within its transaction.
    index: int = 0
    #: Set when the read was predicate-based (name of the predicate).
    predicate: Optional[str] = None


@dataclass(slots=True)
class WriteEvent:
    """One write of ``value`` to ``key``."""

    key: str
    value: Any = None
    index: int = 0


@dataclass
class HistoryTransaction:
    """A transaction in a history."""

    txn_id: int
    committed: bool = True
    session_id: Optional[int] = None
    reads: List[ReadEvent] = field(default_factory=list)
    writes: List[WriteEvent] = field(default_factory=list)
    #: Commit position used to order transactions within a session.
    commit_order: int = 0
    #: Workload-level tag (e.g. a TPC-C program name), when recorded live.
    label: Optional[str] = None

    def final_write(self, key: str) -> Optional[WriteEvent]:
        """The transaction's last write to ``key`` (its installed version)."""
        final = None
        for write in self.writes:
            if write.key == key:
                final = write
        return final

    def write_keys(self) -> List[str]:
        seen: Dict[str, None] = {}
        for write in self.writes:
            seen.setdefault(write.key, None)
        return list(seen)


class History:
    """A set of transactions, a per-item version order, and sessions."""

    def __init__(self):
        self.transactions: Dict[int, HistoryTransaction] = {}
        #: key -> list of txn ids in version (installation) order.
        self.version_order: Dict[str, List[int]] = {}
        #: key -> {txn id: position in the key's version order}, built on
        #: first use by :meth:`version_position`, dropped by the mutators.
        self._positions: Dict[str, Dict[int, int]] = {}
        self._commit_counter = 0

    # -- construction ---------------------------------------------------------
    def add_transaction(self, transaction: HistoryTransaction) -> None:
        """Add ``transaction``; its writes install in arrival order."""
        self._register(transaction)
        self._positions.clear()
        if transaction.committed:
            # A transaction is added once and names each key once, so its id
            # cannot already be in an order it is appended to.
            for key in transaction.write_keys():
                self.version_order.setdefault(key, []).append(transaction.txn_id)

    def _register(self, transaction: HistoryTransaction) -> None:
        """Take ``transaction`` in at the next commit position (the caller
        supplies the version orders its writes belong to)."""
        if transaction.txn_id in self.transactions:
            raise IsolationError(f"duplicate transaction id {transaction.txn_id}")
        self._commit_counter += 1
        transaction.commit_order = self._commit_counter
        self.transactions[transaction.txn_id] = transaction

    def set_version_order(self, key: str, txn_ids: Iterable[int]) -> None:
        """Override the version order for ``key`` (hand-built histories)."""
        txn_ids = list(txn_ids)
        for txn_id in txn_ids:
            if txn_id not in self.transactions:
                raise IsolationError(f"unknown transaction {txn_id} in version order")
        self.version_order[key] = txn_ids
        self._positions.clear()

    # -- queries -----------------------------------------------------------------
    def committed(self) -> List[HistoryTransaction]:
        return [t for t in self.transactions.values() if t.committed]

    def aborted(self) -> List[HistoryTransaction]:
        return [t for t in self.transactions.values() if not t.committed]

    def transaction(self, txn_id: int) -> HistoryTransaction:
        try:
            return self.transactions[txn_id]
        except KeyError:
            raise IsolationError(f"unknown transaction {txn_id}") from None

    def version_position(self, key: str, txn_id: Optional[int]) -> int:
        """Position of a writer in ``key``'s version order (-1 = initial)."""
        positions = self._positions.get(key)
        if positions is None:
            order = self.version_order.get(key, ())
            # Filled back to front: the first occurrence wins, as with
            # ``list.index``.
            positions = self._positions[key] = {
                writer: position
                for position, writer in reversed(list(enumerate(order)))}
        return positions.get(txn_id, -1)

    def next_writer(self, key: str, txn_id: Optional[int]) -> Optional[int]:
        """The transaction installing the version immediately after ``txn_id``'s."""
        order = self.version_order.get(key, [])
        position = self.version_position(key, txn_id)
        if position + 1 < len(order):
            return order[position + 1]
        return None

    def sessions(self) -> Dict[int, List[HistoryTransaction]]:
        """Committed transactions grouped by session, in commit order."""
        grouped: Dict[int, List[HistoryTransaction]] = {}
        for transaction in self.committed():
            if transaction.session_id is None:
                continue
            grouped.setdefault(transaction.session_id, []).append(transaction)
        for transactions in grouped.values():
            transactions.sort(key=lambda t: t.commit_order)
        return grouped

    def keys(self) -> List[str]:
        return sorted(self.version_order)


class HistoryBuilder:
    """Fluent construction of hand-written histories (for tests/examples).

    Example, the paper's Figure 7 (IMP anomaly)::

        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1)
        t2 = builder.transaction()
        t2.write("x", 2)
        t3 = builder.transaction()
        t3.read("x", from_txn=t1.txn_id, value=1)
        t3.read("x", from_txn=t2.txn_id, value=2)
        history = builder.build()
    """

    class _TxnHandle:
        def __init__(self, transaction: HistoryTransaction):
            self._transaction = transaction
            self._index = 0

        @property
        def txn_id(self) -> int:
            return self._transaction.txn_id

        def read(self, key: str, from_txn: Optional[int] = INITIAL,
                 value: Any = None) -> "HistoryBuilder._TxnHandle":
            """An item read of the version ``from_txn`` installed."""
            self._transaction.reads.append(ReadEvent(
                key=key, writer_txn=from_txn, value=value, index=self._index))
            self._index += 1
            return self

        def scan(self, predicate: str,
                 matches: Iterable[Tuple[str, Optional[int], Any]],
                 ) -> "HistoryBuilder._TxnHandle":
            """One evaluation of ``predicate``: each ``(key, from_txn, value)``
            it matched, recorded under the evaluation's one index."""
            self._transaction.reads.extend(
                ReadEvent(key, from_txn, value, self._index, predicate)
                for key, from_txn, value in matches)
            self._index += 1
            return self

        def write(self, key: str, value: Any = None) -> "HistoryBuilder._TxnHandle":
            self._transaction.writes.append(WriteEvent(
                key=key, value=value, index=self._index,
            ))
            self._index += 1
            return self

        def abort(self) -> "HistoryBuilder._TxnHandle":
            self._transaction.committed = False
            return self

    def __init__(self):
        self._next_id = 1
        self._handles: List[HistoryBuilder._TxnHandle] = []
        self._pending_orders: List[Tuple[str, List[int]]] = []

    def transaction(self, session: Optional[int] = None,
                    txn_id: Optional[int] = None) -> "HistoryBuilder._TxnHandle":
        """Start a new transaction (optionally in a session)."""
        if txn_id is None:
            txn_id = self._next_id
        self._next_id = max(self._next_id, txn_id) + 1
        transaction = HistoryTransaction(txn_id=txn_id, session_id=session)
        handle = HistoryBuilder._TxnHandle(transaction)
        self._handles.append(handle)
        return handle

    def version_order(self, key: str, *txn_ids: int) -> "HistoryBuilder":
        """Declare the version order of ``key`` explicitly."""
        self._pending_orders.append((key, list(txn_ids)))
        return self

    def build(self) -> History:
        """Finalize: transactions are committed in creation order by default.

        ``build()`` may be called more than once; each call produces a fresh
        :class:`History` from the declared transactions.
        """
        history = History()
        for handle in self._handles:
            history.add_transaction(handle._transaction)
        for key, txn_ids in self._pending_orders:
            history.set_version_order(key, txn_ids)
        return history


class HistoryRecorder:
    """Collects histories from live protocol runs.

    Pass an instance as ``recorder=`` when creating clients through the
    testbed; each finished transaction is appended.  The version order per
    key is the timestamp order of committed writes, matching the
    last-writer-wins install order at replicas.
    """

    def __init__(self):
        self._results: List[Tuple[object, object]] = []

    def record(self, transaction, result) -> None:
        """Called by protocol clients when a transaction finishes."""
        self._results.append((transaction, result))

    def __len__(self) -> int:
        return len(self._results)

    @gc_paused()
    def build(self) -> History:
        """Convert everything recorded so far into a :class:`History` (with
        the collector paused: everything it allocates stays live)."""
        history = History()
        # Sort by commit time so commit_order reflects real time.
        ordered = sorted(self._results, key=lambda pair: pair[1].end_ms)
        #: key -> (write timestamp, writer) per committed write, in commit
        #: order; keys in first-writer order.
        installs: Dict[str, List[Tuple[object, int]]] = {}
        for transaction, result in ordered:
            # Events by position (field order): one per operation recorded.
            reads = [ReadEvent(observation.key, observation.version.txn_id,
                               observation.version.value, index)
                     for index, observation in enumerate(result.reads)]
            writes: List[WriteEvent] = []
            if result.committed:
                stamped = (result.timestamp, result.txn_id)
                for index, (key, value) in enumerate(result.writes.items(),
                                                     len(reads)):
                    writes.append(WriteEvent(key, value, index))
                    installs.setdefault(key, []).append(stamped)
            history._register(HistoryTransaction(
                result.txn_id, result.committed, result.session_id, reads,
                writes, label=getattr(transaction, "label", None)))
        for key, entries in installs.items():
            # Timestamp order where the writers carry one (last-writer-wins
            # installs; writers without are then left out), else commit order.
            stamped = [entry for entry in entries if entry[0] is not None]
            if stamped:
                stamped.sort(key=lambda entry: entry[0])
                entries = stamped
            history.version_order[key] = [txn_id for _, txn_id in entries]
        return history
