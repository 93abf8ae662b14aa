"""Write-ahead log with a synchronous-flush cost model.

The paper's servers "synchronously write to LevelDB before responding to
client requests, while new writes in MAV are synchronously flushed to a
disk-resident write-ahead log".  The WAL therefore contributes a fixed fsync
cost to every durable write; the MAV protocol pays it twice (once into the
WAL/pending set, once when the write moves to the good set), which is exactly
the "two writes for every client-side write" overhead reported in Section 6.3.

Records are stored as plain tuples internally — the append path runs once
per durable write on every server and only the cost model matters there;
:meth:`WriteAheadLog.replay` materializes :class:`LogRecord` objects on
demand.  ``max_records`` bounds retention so long chaos runs do not grow an
unbounded log on every replica.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Iterator, Optional


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One appended record."""

    lsn: int
    kind: str
    key: Optional[str]
    payload: Any
    size_bytes: int


@dataclass
class WriteAheadLog:
    """An append-only log; appends return their simulated cost in ms."""

    fsync_ms: float = 0.4
    bytes_per_ms: float = 200_000.0
    #: Bound on retained records (``None`` = keep everything).  Server nodes
    #: cap theirs: the retained records exist for replay and debugging, and
    #: an unbounded list grows forever on every replica of a long run.
    max_records: Optional[int] = None
    _next_lsn: int = 0
    _unsynced_bytes: int = 0

    def __post_init__(self) -> None:
        # A bounded deque drops the oldest record in O(1) when full.
        self._records: Deque[tuple] = deque(maxlen=self.max_records)

    def append(self, kind: str, key: Optional[str], payload: Any,
               size_bytes: int = 128, sync: bool = True) -> float:
        """Append a record; return the simulated time cost in milliseconds."""
        self._records.append((self._next_lsn, kind, key, payload, size_bytes))
        self._next_lsn += 1
        self._unsynced_bytes += size_bytes
        if not sync:
            return size_bytes / self.bytes_per_ms
        cost = self.fsync_ms + self._unsynced_bytes / self.bytes_per_ms
        self._unsynced_bytes = 0
        return cost

    def sync(self) -> float:
        """Flush unsynced bytes; return the simulated cost in milliseconds."""
        cost = self.fsync_ms + self._unsynced_bytes / self.bytes_per_ms
        self._unsynced_bytes = 0
        return cost

    def replay(self) -> Iterator[LogRecord]:
        """Iterate over retained records in append order (crash recovery)."""
        return iter([LogRecord(*record) for record in self._records])
