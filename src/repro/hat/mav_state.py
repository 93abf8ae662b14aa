"""Server-side state for the Monotonic Atomic View algorithm (Appendix B).

Replicas keep two sets of writes per data item:

* ``pending`` — writes received (from clients or via anti-entropy) whose
  transactions are not yet *pending stable*, kept on their transaction's one
  pending record (:class:`PendingTransaction`, keyed by timestamp),
* ``good`` — the stable writes, which readers see by default (in this
  implementation ``good`` is the server's main LSM store).

When a replica first receives a write for a key it owns, it acknowledges it
to every replica of every sibling key (read off their placement records once
per transaction): to itself in place, in :meth:`MAVState.add_write`, to the
others via ``owed`` — acks the anti-entropy tick sends on its ``ae.push`` to
the destination if the round has one and in a ``mav.notify`` otherwise, kept
while that destination is unreachable or the sender is down.  Once a replica
holds acks (its own and :meth:`MAVState.record_acks`') from all replicas of
all the transaction's keys, either path takes the one transition to pending
stable, :meth:`MAVState._promote`: its local pending writes move to ``good``.

Reads carry a ``required`` timestamp lower bound: if ``good`` cannot satisfy
it, the replica answers from ``pending`` — which is safe precisely because
the lower bound was learned from a sibling write that was already stable,
implying this replica has received its share of the transaction (see the
paper's argument in Appendix B).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.config import ClusterConfig
from repro.storage.records import Timestamp, Version

#: One acknowledgement: (timestamp, acknowledging server, key, expected acks).
Ack = Tuple[Timestamp, str, str, int]
_replicas = attrgetter("replicas")  # of a Placement


class PendingTransaction:
    """Book-keeping for one not-yet-stable transaction at one replica."""

    __slots__ = ("expected_acks", "acks", "writes", "destinations", "acked_here")

    def __init__(self, expected_acks: int):
        self.expected_acks = expected_acks
        #: Distinct (origin server, key) acknowledgement pairs seen so far.
        self.acks: Set[Tuple[str, str]] = set()
        #: key -> this replica's pending write of it, in arrival order.
        self.writes: Dict[str, Version] = {}
        #: Set at the first local write: the *other* replicas of every
        #: sibling key (where this replica's acks are owed), and whether this
        #: replica is one too (acknowledges to itself).
        self.destinations: Optional[Tuple[str, ...]] = None
        self.acked_here = False


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
        self._placements = config.placements  # reset, never replaced
        self.replication_factor = config.replication_factor()
        #: Transactions still collecting acknowledgements (and their writes).
        self._pending: Dict[Timestamp, PendingTransaction] = {}
        #: Transactions that became stable here (the only per-txn residue).
        self._stable: Set[Timestamp] = set()
        #: destination -> unsent acks (index it only to owe: ``in`` / ``pop``).
        self.owed: Dict[str, List[Ack]] = defaultdict(list)
        self.stats = MAVStats()

    # -- write arrival ------------------------------------------------------------
    def add_write(self, version: Version) -> Optional[List[Version]]:
        """Take in a write and acknowledge it; return the writes this
        replica's own ack made stable, or ``None`` — nothing acknowledged — if
        it already holds this (key, timestamp) pair or the transaction is
        stable (see :meth:`is_stable`; such a write belongs in ``good``)."""
        timestamp, key = version.timestamp, version.key
        entry = self._pending.get(timestamp)
        if entry is None:
            if timestamp in self._stable:
                return None
            entry = self._pending[timestamp] = PendingTransaction(
                len(version.siblings or (key,)) * self.replication_factor)
        elif key in entry.writes:
            return None
        entry.writes[key] = version
        stats, name = self.stats, self.name
        stats.puts += 1
        if entry.destinations is None:  # one C-level pass over the siblings
            replicas = set(chain.from_iterable(map(_replicas, map(
                self._placements.__getitem__, version.siblings or (key,)))))
            entry.acked_here = name in replicas
            replicas.discard(name)
            entry.destinations = tuple(replicas)
        ack, owed = (timestamp, name, key, entry.expected_acks), self.owed
        for server in entry.destinations:
            owed[server].append(ack)
        if not entry.acked_here:
            return []
        stats.notifies_received += 1
        entry.acks.add((name, key))
        if len(entry.acks) < entry.expected_acks:
            return []
        return self._promote(timestamp, entry)

    # -- acknowledgements ------------------------------------------------------------
    def record_acks(self, acks: Sequence[Ack]) -> List[Version]:
        """Record a batch of acknowledgements; return the writes they made
        stable, in the order the transactions completed.  A set may complete
        before any local write arrived (the transaction then contributes
        nothing); acks for a stable transaction are dropped."""
        promoted: List[Version] = []
        pending = self._pending
        for timestamp, origin, key, expected in acks:
            entry = pending.get(timestamp)
            if entry is None:
                if timestamp in self._stable:
                    continue
                entry = pending[timestamp] = PendingTransaction(expected)
            entry.acks.add((origin, key))
            if len(entry.acks) >= entry.expected_acks:
                promoted += self._promote(timestamp, entry)
        self.stats.notifies_received += len(acks)
        return promoted

    def _promote(self, timestamp: Timestamp, entry) -> List[Version]:
        """The transition to stable: the entry goes, the timestamp stays (for
        later duplicates) and the local writes go to the caller for good."""
        del self._pending[timestamp]
        self._stable.add(timestamp)
        self.stats.promoted += len(entry.writes)
        return list(entry.writes.values())

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
        entry = self._pending.get(required)
        return entry.writes.get(key) if entry is not None else None

    # -- introspection -----------------------------------------------------------------------
    def pending_count(self) -> int:
        """Number of writes currently waiting for stability."""
        return sum(len(entry.writes) for entry in self._pending.values())

    def tracked_transactions(self) -> int:
        """Transactions still holding an acknowledgement entry (unstable)."""
        return len(self._pending)

    def stable_count(self) -> int:
        """Transactions remembered as stable (one timestamp each)."""
        return len(self._stable)
