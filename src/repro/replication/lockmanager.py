"""A per-server lock table for the distributed two-phase-locking baseline.

Section 6.1: "traditional two-phase locking for a transaction of length T may
require T lock operations ... each of these lock operations requires
coordination".  The lock manager lives at each key's master replica; clients
acquire an exclusive lock per key before operating and release all locks
after commit.  Grants can be deferred (the request waits in a FIFO queue),
which is how lock contention turns into latency in the benchmarks, and a
waiting request can time out, which is how deadlocks resolve (the waiter
aborts and releases its locks).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Tuple


@dataclass
class LockStats:
    acquired: int = 0
    waited: int = 0
    released: int = 0
    queue_peak: int = 0


class LockManager:
    """Exclusive per-key locks with FIFO waiters and deferred grants."""

    def __init__(self):
        #: key -> transaction id currently holding the lock
        self._holders: Dict[str, int] = {}
        #: key -> queue of (txn_id, grant callback)
        self._waiters: Dict[str, Deque[Tuple[int, Callable[[], None]]]] = {}
        self.stats = LockStats()

    def acquire(self, key: str, txn_id: int, on_grant: Callable[[], None]) -> bool:
        """Request the lock on ``key`` for ``txn_id``.

        Returns ``True`` and calls ``on_grant`` immediately when the lock is
        free (or already held by the same transaction); otherwise the request
        joins the FIFO queue and ``on_grant`` runs when the lock is granted
        later.  Returns whether the grant was immediate.
        """
        holder = self._holders.get(key)
        if holder is None or holder == txn_id:
            self._holders[key] = txn_id
            self.stats.acquired += 1
            on_grant()
            return True
        queue = self._waiters.setdefault(key, deque())
        queue.append((txn_id, on_grant))
        self.stats.waited += 1
        self.stats.queue_peak = max(self.stats.queue_peak, len(queue))
        return False

    def release(self, key: str, txn_id: int) -> bool:
        """Release ``key`` if held by ``txn_id``; grant the next waiter."""
        if self._holders.get(key) != txn_id:
            # Releasing a lock we do not hold is a no-op (e.g. an abort racing
            # with a timeout); also purge any queued request from this txn.
            self._purge_waiter(key, txn_id)
            return False
        self.stats.released += 1
        queue = self._waiters.get(key)
        if queue:
            next_txn, on_grant = queue.popleft()
            self._holders[key] = next_txn
            self.stats.acquired += 1
            on_grant()
        else:
            del self._holders[key]
        return True

    def cancel(self, key: str, txn_id: int) -> None:
        """Remove a queued (not yet granted) request, e.g. after a timeout."""
        self._purge_waiter(key, txn_id)

    def _purge_waiter(self, key: str, txn_id: int) -> None:
        queue = self._waiters.get(key)
        if not queue:
            return
        self._waiters[key] = deque(
            (tid, cb) for tid, cb in queue if tid != txn_id
        )

    # -- inspection ------------------------------------------------------------
    def holder(self, key: str) -> Optional[int]:
        return self._holders.get(key)
