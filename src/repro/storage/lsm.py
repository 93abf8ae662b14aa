"""A LevelDB-like log-structured merge (LSM) store with a cost model.

The paper's prototype is "a partially replicated (hash-based partitioned)
key-value backed by LevelDB".  The parts of LevelDB that matter for the
evaluation's *shape* are:

* every put lands in a memtable and is cheap,
* memtables flush to SSTables when full, and SSTables compact, which costs
  I/O that competes with foreground requests (the paper attributes MAV's
  reduced scale-out to "contention within LevelDB" and increased IOPS),
* gets may have to consult several SSTables, so read cost grows slowly with
  the number of un-compacted tables.

:class:`LSMStore` stores real versioned data (delegating to
:class:`~repro.storage.kvstore.VersionedStore`) and returns a simulated cost
in milliseconds for every operation, which the server node adds to its
service time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.storage.kvstore import VersionedStore
from repro.storage.records import (
    METADATA_BYTES, NO_SIBLINGS, NULL_TIMESTAMP, SIBLING_BYTES, Version, new_tuple)


#: The cost model (milliseconds unless noted).  CPU + memtable insert per put:
PUT_MS = 0.05
#: A memtable lookup / block-cache hit.
GET_MEMTABLE_MS = 0.03
#: Each SSTable a read consults beyond the memtable.
GET_PER_SSTABLE_MS = 0.02
#: Memtable capacity in bytes before a flush is triggered.
MEMTABLE_BYTES = 4 * 1024 * 1024
#: Flushing one memtable to an SSTable.
FLUSH_MS = 8.0
#: SSTables that trigger a compaction.
COMPACTION_TRIGGER = 4
#: One compaction pass.
COMPACTION_MS = 20.0
#: A stored value's size in bytes when the caller gives none (YCSB: 1 KB).
DEFAULT_VALUE_BYTES = 1024


@dataclass(slots=True)
class SSTable:
    """Summary of one on-disk sorted run (we only track aggregate size)."""

    entries: int
    size_bytes: int


@dataclass(slots=True)
class LSMStats:
    """Operation and I/O counters, used by tests and bench reports."""

    puts: int = 0
    gets: int = 0
    flushes: int = 0
    compactions: int = 0
    bytes_written: int = 0


class LSMStore:
    """Versioned key-value store with LevelDB-like cost accounting."""

    def __init__(self, keep_versions: Optional[int] = None):
        self.data = VersionedStore(keep_versions=keep_versions)
        self._latest = self.data._latest  # key -> newest version, read by ``get_latest``
        self.stats = LSMStats()
        self._memtable_bytes = 0
        self._memtable_entries = 0
        self._sstables: List[SSTable] = []

    # -- foreground operations -------------------------------------------------
    def put(self, version: Version, value_bytes: Optional[int] = None) -> float:
        """Install a version; return the foreground cost in milliseconds."""
        size = value_bytes if value_bytes is not None else DEFAULT_VALUE_BYTES
        siblings = len(version.siblings)  # ``Version.metadata_bytes``, inline
        size += METADATA_BYTES if siblings < 2 else METADATA_BYTES + SIBLING_BYTES * (siblings - 1)
        self.data.install(version)
        self.stats.puts += 1
        self.stats.bytes_written += size
        self._memtable_bytes += size
        self._memtable_entries += 1
        if self._memtable_bytes >= MEMTABLE_BYTES:
            return PUT_MS + self._flush()
        return PUT_MS

    def get_latest(self, key: str) -> tuple:
        """Return ``(version, cost_ms)`` for the latest version of ``key`` (or
        its bottom version): ``VersionedStore.latest`` and the cost, one frame."""
        self.stats.gets += 1
        version = self._latest.get(key)
        return (version if version is not None else
                new_tuple(Version, (key, None, NULL_TIMESTAMP, None, NO_SIBLINGS, False)),
                GET_MEMTABLE_MS + GET_PER_SSTABLE_MS * len(self._sstables))

    def scan(self, predicate) -> tuple:
        """Return ``(matching versions, cost_ms)`` for a predicate read."""
        matches = self.data.scan(predicate)
        # A scan touches the memtable plus every SSTable.
        self.stats.gets += 1
        return matches, (GET_MEMTABLE_MS + GET_PER_SSTABLE_MS * len(self._sstables)
                         + GET_PER_SSTABLE_MS * max(1, len(matches)) * 0.1)

    # -- cost helpers ------------------------------------------------------------
    def _flush(self) -> float:
        """Flush the memtable; possibly trigger a compaction."""
        self._sstables.append(SSTable(self._memtable_entries, self._memtable_bytes))
        self._memtable_bytes = 0
        self._memtable_entries = 0
        self.stats.flushes += 1
        if len(self._sstables) >= COMPACTION_TRIGGER:
            return FLUSH_MS + self._compact()
        return FLUSH_MS

    def _compact(self) -> float:
        merged_entries = sum(t.entries for t in self._sstables)
        merged_bytes = sum(t.size_bytes for t in self._sstables)
        self._sstables = [SSTable(entries=merged_entries, size_bytes=merged_bytes)]
        self.stats.compactions += 1
        return COMPACTION_MS
