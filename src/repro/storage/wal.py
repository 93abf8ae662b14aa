"""Write-ahead log with a fixed synchronous-flush cost.

The paper's servers "synchronously write to LevelDB before responding to
client requests, while new writes in MAV are synchronously flushed to a
disk-resident write-ahead log".  The WAL therefore contributes a fixed fsync
cost (:data:`FSYNC_MS`, plus the record's bytes at :data:`BYTES_PER_MS`) to
every durable write, and every append is synchronous; the MAV protocol pays it twice (once into the
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

#: One fsync, in milliseconds.
FSYNC_MS = 0.4
#: Log write bandwidth, in bytes per millisecond.
BYTES_PER_MS = 200_000.0


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

    #: Bound on retained records (``None`` = keep everything).  Server nodes
    #: cap theirs: the retained records exist for replay and debugging, and
    #: an unbounded list grows forever on every replica of a long run.
    max_records: Optional[int] = None

    def __post_init__(self) -> None:
        self._next_lsn = 0
        # A bounded deque drops the oldest record in O(1) when full.
        self._records: Deque[tuple] = deque(maxlen=self.max_records)

    def append(self, kind: str, key: Optional[str], payload: Any,
               size_bytes: int = 128) -> float:
        """Append a record and sync it; return the simulated time cost in
        milliseconds."""
        self._records.append((self._next_lsn, kind, key, payload, size_bytes))
        self._next_lsn += 1
        return FSYNC_MS + size_bytes / BYTES_PER_MS

    def sync(self) -> float:
        """Sync the log; every append already did, so this is one fsync's
        simulated cost in milliseconds."""
        return FSYNC_MS

    def replay(self) -> Iterator[LogRecord]:
        """Iterate over retained records in append order (crash recovery)."""
        return iter([LogRecord(*record) for record in self._records])
