"""Local storage substrate.

The paper's prototype persists data in LevelDB and a write-ahead log.  This
package provides the simulated equivalents used by each server node:

* :mod:`repro.storage.records` — versioned values (write timestamp, the set
  of transaction sibling keys used by MAV, tombstones),
* :mod:`repro.storage.kvstore` — a multi-versioned in-memory key-value map,
* :mod:`repro.storage.wal` — a write-ahead log with a configurable fsync cost,
* :mod:`repro.storage.lsm` — a LevelDB-like LSM tree (memtable, SSTables,
  compaction) with a cost model that feeds the server's service time.
"""
