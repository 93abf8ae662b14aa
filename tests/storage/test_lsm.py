"""Unit tests for the LSM store and its cost model."""

import pytest

from repro.storage.lsm import (COMPACTION_MS, COMPACTION_TRIGGER, FLUSH_MS,
                               GET_PER_SSTABLE_MS, MEMTABLE_BYTES, PUT_MS, LSMStore)
from repro.storage.records import METADATA_BYTES, Timestamp, Version


def v(key, value, seq):
    return Version(key=key, value=value, timestamp=Timestamp(seq, 1))


#: Puts of a 1 KiB value (plus a plain version's metadata) that fill the
#: 4 MiB memtable: the last one flushes it.
PUTS_PER_FLUSH = -(-MEMTABLE_BYTES // (1024 + METADATA_BYTES))


def fill(store, flushes):
    """Put 1 KiB values under fresh keys through ``flushes`` memtables;
    returns each put's cost."""
    start = store.stats.puts
    return [store.put(v(f"k{i}", i, i + 1), value_bytes=1024)
            for i in range(start, start + flushes * PUTS_PER_FLUSH)]


class TestLSMStore:
    def test_put_then_get(self):
        store = LSMStore()
        store.put(v("x", 1, 1))
        version, cost = store.get_latest("x")
        assert version.value == 1
        assert cost > 0

    def test_get_at_or_before(self):
        store = LSMStore()
        store.put(v("x", 1, 1))
        store.put(v("x", 2, 5))
        assert store.data.latest_at_or_before("x", Timestamp(3, 9)).value == 1

    def test_put_cost_is_positive_and_counts(self):
        store = LSMStore()
        cost = store.put(v("x", 1, 1))
        assert cost == PUT_MS
        assert store.stats.puts == 1
        assert store.stats.bytes_written > 0

    def test_memtable_flush_triggers_on_size(self):
        # Every put short of 4 MiB is a memtable insert; the one that
        # reaches it pays the flush too.
        store = LSMStore()
        costs = fill(store, 1)
        assert store.stats.flushes == 1
        assert costs[:-1] == [PUT_MS] * (PUTS_PER_FLUSH - 1)
        assert costs[-1] == PUT_MS + FLUSH_MS
        assert store.put(v("after", 0, 1)) == PUT_MS

    def test_compaction_triggered_after_enough_sstables(self):
        store = LSMStore()
        costs = fill(store, COMPACTION_TRIGGER)
        assert store.stats.flushes == COMPACTION_TRIGGER
        assert store.stats.compactions == 1
        assert len(store._sstables) == 1
        assert costs[-1] == PUT_MS + FLUSH_MS + COMPACTION_MS
        assert store._sstables[0].entries == COMPACTION_TRIGGER * PUTS_PER_FLUSH

    def test_read_cost_grows_with_sstables(self):
        store = LSMStore()
        _, cold_cost = store.get_latest("x")
        fill(store, 2)
        _, warm_cost = store.get_latest("x")
        assert warm_cost == cold_cost + 2 * GET_PER_SSTABLE_MS

    def test_scan_returns_matches(self):
        store = LSMStore()
        store.put(v("a", 5, 1))
        store.put(v("b", 50, 2))
        matches, cost = store.scan(lambda key, version: version.value >= 10)
        assert [m.key for m in matches] == ["b"]
        assert cost > 0

    def test_contains(self):
        store = LSMStore()
        version, _ = store.get_latest("x")
        assert version.value is None and "x" not in list(store.data.keys())
        store.put(v("x", 1, 1))
        assert store.get_latest("x")[0].value == 1
        assert list(store.data.keys()) == ["x"]

    def test_mav_metadata_increases_bytes(self):
        store = LSMStore()
        plain = v("x", 1, 1)
        heavy = Version("x", 1, Timestamp(2, 1),
                        siblings=frozenset(f"k{i}" for i in range(64)))
        store.put(plain)
        bytes_after_plain = store.stats.bytes_written
        store.put(heavy)
        assert store.stats.bytes_written - bytes_after_plain > bytes_after_plain
