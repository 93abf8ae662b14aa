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

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.storage.kvstore import VersionedStore
from repro.storage.records import METADATA_BYTES, NULL_TIMESTAMP, SIBLING_BYTES, Version


@dataclass(slots=True)
class LSMCostModel:
    """Tunable cost constants (all in milliseconds unless noted)."""

    #: CPU + memtable insert cost per put.
    put_ms: float = 0.05
    #: Cost of a memtable lookup / block-cache hit.
    get_memtable_ms: float = 0.03
    #: Additional cost per SSTable consulted on a read miss path.
    get_per_sstable_ms: float = 0.02
    #: Memtable capacity in bytes before a flush is triggered.
    memtable_bytes: int = 4 * 1024 * 1024
    #: Cost to flush one memtable to an SSTable.
    flush_ms: float = 8.0
    #: Number of SSTables that triggers a compaction.
    compaction_trigger: int = 4
    #: Cost of one compaction pass.
    compaction_ms: float = 20.0
    #: Approximate size of a stored value in bytes (YCSB default: 1 KB).
    default_value_bytes: int = 1024


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
    background_ms: float = 0.0


class LSMStore:
    """Versioned key-value store with LevelDB-like cost accounting."""

    def __init__(self, cost_model: Optional[LSMCostModel] = None,
                 keep_versions: Optional[int] = None):
        self.cost = cost_model or LSMCostModel()
        self.data = VersionedStore(keep_versions=keep_versions)
        self._versions = self.data._versions  # read in place by ``get_latest``
        self.stats = LSMStats()
        self._memtable_bytes = 0
        self._memtable_entries = 0
        self._sstables: List[SSTable] = []

    # -- foreground operations -------------------------------------------------
    def put(self, version: Version, value_bytes: Optional[int] = None) -> float:
        """Install a version; return the foreground cost in milliseconds."""
        size = value_bytes if value_bytes is not None else self.cost.default_value_bytes
        siblings = len(version.siblings)  # ``Version.metadata_bytes``, inline
        size += METADATA_BYTES if siblings < 2 else METADATA_BYTES + SIBLING_BYTES * (siblings - 1)
        self.data.install(version)
        self.stats.puts += 1
        self.stats.bytes_written += size
        self._memtable_bytes += size
        self._memtable_entries += 1
        cost = self.cost.put_ms
        if self._memtable_bytes >= self.cost.memtable_bytes:
            cost += self._flush()
        return cost

    def get_latest(self, key: str) -> tuple:
        """Return ``(version, cost_ms)`` for the latest version of ``key`` (or
        its bottom version): ``VersionedStore.latest`` and the cost, one frame."""
        self.stats.gets += 1
        cost = self.cost
        versions = self._versions.get(key)
        return (versions[-1] if versions else Version(key, None, NULL_TIMESTAMP),
                cost.get_memtable_ms + cost.get_per_sstable_ms * len(self._sstables))

    def scan(self, predicate) -> tuple:
        """Return ``(matching versions, cost_ms)`` for a predicate read."""
        matches = self.data.scan(predicate)
        # A scan touches the memtable plus every SSTable.
        self.stats.gets += 1
        cost = self.cost
        return matches, (cost.get_memtable_ms + cost.get_per_sstable_ms * len(self._sstables)
                         + cost.get_per_sstable_ms * max(1, len(matches)) * 0.1)

    # -- cost helpers ------------------------------------------------------------
    def _flush(self) -> float:
        """Flush the memtable; possibly trigger a compaction."""
        self._sstables.append(SSTable(self._memtable_entries, self._memtable_bytes))
        self._memtable_bytes = 0
        self._memtable_entries = 0
        self.stats.flushes += 1
        cost = self.cost.flush_ms
        if len(self._sstables) >= self.cost.compaction_trigger:
            cost += self._compact()
        self.stats.background_ms += cost
        return cost

    def _compact(self) -> float:
        merged_entries = sum(t.entries for t in self._sstables)
        merged_bytes = sum(t.size_bytes for t in self._sstables)
        self._sstables = [SSTable(entries=merged_entries, size_bytes=merged_bytes)]
        self.stats.compactions += 1
        return self.cost.compaction_ms

    # -- introspection -------------------------------------------------------------
    @property
    def sstable_count(self) -> int:
        return len(self._sstables)

    def __contains__(self, key: str) -> bool:
        return key in self.data
