"""Server-side state for the Monotonic Atomic View algorithm (Appendix B).

Replicas keep two sets of writes per data item:

* ``pending`` — writes received (from clients or via anti-entropy) whose
  transactions are not yet *pending stable*,
* ``good`` — the stable writes, which readers see by default (in this
  implementation ``good`` is the server's main LSM store).

When a replica first receives a write for a key it owns, it acknowledges it
to every replica of every sibling key (a set computed once per transaction):
to itself at once, to the others via ``owed`` — acks not yet handed to the
network, which the anti-entropy tick sends on its ``ae.push`` to the
destination if the round has one and in a ``mav.notify`` otherwise, and
which stay owed while that destination is unreachable or the sender is
down.  A transaction becomes pending stable at a replica once that replica
has collected acknowledgements (:meth:`MAVState.record_acks`, its own
included) from all replicas of all the transaction's keys, at which point
its local pending writes for that transaction move to ``good``.

Reads carry a ``required`` timestamp lower bound: if ``good`` cannot satisfy
it, the replica answers from ``pending`` — which is safe precisely because
the lower bound was learned from a sibling write that was already stable,
implying this replica has received its share of the transaction (see the
paper's argument in Appendix B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.config import ClusterConfig
from repro.storage.records import Timestamp, Version

#: One acknowledgement: (timestamp, acknowledging server, key, expected acks).
Ack = Tuple[Timestamp, str, str, int]


@dataclass(slots=True)
class PendingTransaction:
    """Book-keeping for one not-yet-stable transaction at one replica."""

    expected_acks: int
    #: Distinct (origin server, key) acknowledgement pairs seen so far.
    acks: Set[Tuple[str, str]] = field(default_factory=set)
    #: Local writes for this transaction waiting to become stable.
    writes: List[Version] = field(default_factory=list)
    #: Every replica of every sibling key, set at the first local write.
    destinations: Optional[Tuple[str, ...]] = None


@dataclass
class MAVStats:
    puts: int = 0
    notifies_sent: int = 0
    notifies_received: int = 0
    promoted: int = 0
    pending_reads: int = 0


class MAVState:
    """Pending-write tracking and stability detection for one replica."""

    def __init__(self, name: str, config: ClusterConfig):
        self.name = name
        self.replicas_for = config.replicas_for
        self.replication_factor = config.replication_factor()
        #: Transactions still collecting acknowledgements.
        self._pending: Dict[Timestamp, PendingTransaction] = {}
        #: key -> {timestamp -> version} for pending reads by exact timestamp.
        self._pending_by_key: Dict[str, Dict[Timestamp, Version]] = {}
        #: Transactions that became stable here (the only per-txn residue).
        self._stable: Set[Timestamp] = set()
        self.owed: Dict[str, List[Ack]] = {}  # destination -> unsent acks
        self.stats = MAVStats()

    # -- write arrival ------------------------------------------------------------
    def add_write(self, version: Version) -> Optional[List[Version]]:
        """Take in a write and acknowledge it; return the writes this
        replica's own ack made stable.

        ``None`` if the replica already holds this (key, timestamp) pair or
        the transaction is already stable (see :meth:`is_stable`; such a
        write belongs in ``good``): nothing is acknowledged then.
        """
        timestamp = version.timestamp
        if timestamp in self._stable:
            return None
        by_key = self._pending_by_key.setdefault(version.key, {})
        if timestamp in by_key:
            return None
        by_key[timestamp] = version
        self.stats.puts += 1
        siblings = version.siblings or (version.key,)
        entry = self._pending.get(timestamp)
        if entry is None:
            entry = self._pending[timestamp] = PendingTransaction(
                len(siblings) * self.replication_factor)
        entry.writes.append(version)
        destinations = entry.destinations
        if destinations is None:
            replicas_for = self.replicas_for
            destinations = entry.destinations = tuple(
                {replica for sibling in siblings
                 for replica in replicas_for(sibling)})
        name, owed = self.name, self.owed
        ack = (timestamp, name, version.key, entry.expected_acks)
        for server in destinations:
            if server != name:
                owed.setdefault(server, []).append(ack)
        return self.record_acks((ack,)) if name in destinations else []

    # -- acknowledgements ------------------------------------------------------------
    def record_acks(self, acks: Sequence[Ack]) -> List[Version]:
        """Record a batch of acknowledgements; return the writes they made
        stable, in the order the transactions completed.

        A transaction's writes are returned by the acknowledgement that
        completes its set — the *transition* to stable — and the caller
        installs them into ``good``.  Its entry goes; only the timestamp
        stays, which later duplicates (stray acks, handed-off copies) are
        checked against.  A set may complete before any local write arrived
        (the transaction then contributes nothing).
        """
        promoted: List[Version] = []
        pending, stable = self._pending, self._stable
        for timestamp, origin, key, expected in acks:
            if timestamp in stable:
                continue
            entry = pending.get(timestamp)
            if entry is None:
                entry = pending[timestamp] = PendingTransaction(expected)
            entry.acks.add((origin, key))
            if len(entry.acks) < entry.expected_acks:
                continue
            del pending[timestamp]
            stable.add(timestamp)
            for version in entry.writes:
                by_key = self._pending_by_key[version.key]
                del by_key[timestamp]
                if not by_key:
                    del self._pending_by_key[version.key]
            promoted += entry.writes
        self.stats.notifies_received += len(acks)
        self.stats.promoted += len(promoted)
        return promoted

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
