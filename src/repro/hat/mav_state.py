"""Server-side state for the Monotonic Atomic View algorithm (Appendix B).

Replicas keep two sets of writes per data item:

* ``pending`` — writes received (from clients or via anti-entropy) whose
  transactions are not yet *pending stable*,
* ``good`` — the stable writes, which readers see by default (in this
  implementation ``good`` is the server's main LSM store).

When a replica first receives a write for a key it owns, it acknowledges it
to every replica of every sibling key: to itself at once, to the others via
``owed`` — acks not yet handed to the network, which the anti-entropy tick
sends as one ``mav.notify`` per destination and which stay owed while that
destination is unreachable or the sender is down.  A transaction becomes
pending stable at a replica once that replica has collected acknowledgements
from all replicas of all the transaction's keys, at which point its local
pending writes for that transaction move to ``good``.

Reads carry a ``required`` timestamp lower bound: if ``good`` cannot satisfy
it, the replica answers from ``pending`` — which is safe precisely because
the lower bound was learned from a sibling write that was already stable,
implying this replica has received its share of the transaction (see the
paper's argument in Appendix B).

A transaction's acknowledgement entry lives only while the transaction is
unstable: the acknowledgement that completes the set hands the local writes
to the caller for promotion and leaves just the timestamp behind, which is
what later duplicates (anti-entropy echoes, stray acknowledgements) are
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.storage.records import Timestamp, Version

#: One acknowledgement: ``record_ack``'s (timestamp, origin, key, expected).
Ack = Tuple[Timestamp, str, str, int]


@dataclass(slots=True)
class PendingTransaction:
    """Book-keeping for one not-yet-stable transaction at one replica."""

    expected_acks: int = 0
    #: Distinct (origin server, key) acknowledgement pairs seen so far.
    acks: Set[Tuple[str, str]] = field(default_factory=set)
    #: Local writes for this transaction waiting to become stable.
    writes: List[Version] = field(default_factory=list)


@dataclass
class MAVStats:
    puts: int = 0
    notifies_sent: int = 0
    notifies_received: int = 0
    promoted: int = 0
    pending_reads: int = 0


class MAVState:
    """Pending-write tracking and stability detection for one replica."""

    def __init__(self, replication_factor: int):
        self.replication_factor = replication_factor
        #: Transactions still collecting acknowledgements.
        self._pending: Dict[Timestamp, PendingTransaction] = {}
        #: key -> {timestamp -> version} for pending reads by exact timestamp.
        self._pending_by_key: Dict[str, Dict[Timestamp, Version]] = {}
        #: Transactions that became stable here (the only per-txn residue).
        self._stable: Set[Timestamp] = set()
        self.owed: Dict[str, List[Ack]] = {}  # destination -> unsent acks
        self.stats = MAVStats()

    # -- write arrival ------------------------------------------------------------
    def add_write(self, version: Version) -> bool:
        """Record an incoming write of a transaction that is not stable here.

        Returns ``True`` if this is the first time the replica has seen this
        (key, timestamp) pair — only then should it acknowledge the write to
        the sibling replicas.  A write of an already-stable transaction never
        becomes pending (see :meth:`is_stable`; it belongs in ``good``).
        """
        timestamp = version.timestamp
        if timestamp in self._stable:
            return False
        by_key = self._pending_by_key.setdefault(version.key, {})
        if timestamp in by_key:
            return False
        by_key[timestamp] = version
        self.stats.puts += 1
        entry = self._pending.get(timestamp)
        if entry is None:
            entry = self._pending[timestamp] = PendingTransaction()
        if entry.expected_acks == 0:
            entry.expected_acks = len(version.siblings) * self.replication_factor
        entry.writes.append(version)
        return True

    # -- acknowledgements ------------------------------------------------------------
    def record_ack(self, timestamp: Timestamp, origin: str, key: str,
                   expected_acks: int) -> List[Version]:
        """Record one acknowledgement; return the writes it made stable.

        The list is non-empty only for the acknowledgement that completes the
        transaction's set — the *transition* to stable — and holds this
        replica's pending writes for it, which the caller installs into the
        ``good`` store.  From then on only the timestamp is remembered:
        further acknowledgements for it are ignored, and acknowledgements may
        complete before any local write arrived (the list is then empty).
        """
        self.stats.notifies_received += 1
        if timestamp in self._stable:
            return []
        entry = self._pending.get(timestamp)
        if entry is None:
            entry = self._pending[timestamp] = PendingTransaction()
        if entry.expected_acks == 0:
            entry.expected_acks = expected_acks
        entry.acks.add((origin, key))
        if entry.expected_acks == 0 or len(entry.acks) < entry.expected_acks:
            return []
        del self._pending[timestamp]
        self._stable.add(timestamp)
        for version in entry.writes:
            by_key = self._pending_by_key[version.key]
            del by_key[timestamp]
            if not by_key:
                del self._pending_by_key[version.key]
        self.stats.promoted += len(entry.writes)
        return entry.writes

    def is_stable(self, timestamp: Timestamp) -> bool:
        return timestamp in self._stable

    # -- pending reads --------------------------------------------------------------------
    def read_pending(self, key: str, required: Timestamp) -> Optional[Version]:
        """Serve a read from pending: the exact required version, if present.

        Falling back to the *highest* pending version would risk returning a
        write that never becomes stable, so only the requested timestamp is
        returned (stable writes are never pending: they are in ``good``).
        """
        self.stats.pending_reads += 1
        by_key = self._pending_by_key.get(key)
        return by_key.get(required) if by_key is not None else None

    # -- introspection -----------------------------------------------------------------------
    def pending_count(self) -> int:
        """Number of writes currently waiting for stability."""
        return sum(len(by_key) for by_key in self._pending_by_key.values())

    def tracked_transactions(self) -> int:
        """Transactions still holding an acknowledgement entry (unstable)."""
        return len(self._pending)

    def stable_count(self) -> int:
        """Transactions remembered as stable (one timestamp each)."""
        return len(self._stable)
