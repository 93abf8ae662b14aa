"""Unit tests for the LSM store and its cost model."""

import pytest

from repro.storage.lsm import LSMCostModel, LSMStore
from repro.storage.records import Timestamp, Version


def v(key, value, seq):
    return Version(key=key, value=value, timestamp=Timestamp(seq, 1))


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
        assert cost >= store.cost.put_ms
        assert store.stats.puts == 1
        assert store.stats.bytes_written > 0

    def test_memtable_flush_triggers_on_size(self):
        cost_model = LSMCostModel(memtable_bytes=4096, flush_ms=5.0)
        store = LSMStore(cost_model)
        # Each put writes ~1 KB + metadata; four puts should force a flush.
        total = sum(store.put(v(f"k{i}", i, i), value_bytes=1024) for i in range(4))
        assert store.stats.flushes >= 1
        assert total > 4 * cost_model.put_ms

    def test_compaction_triggered_after_enough_sstables(self):
        cost_model = LSMCostModel(memtable_bytes=1024, compaction_trigger=2)
        store = LSMStore(cost_model)
        for i in range(8):
            store.put(v(f"k{i}", i, i), value_bytes=1024)
        assert store.stats.compactions >= 1
        assert store.sstable_count < store.stats.flushes

    def test_read_cost_grows_with_sstables(self):
        cost_model = LSMCostModel(memtable_bytes=1024, compaction_trigger=100)
        store = LSMStore(cost_model)
        _, cold_cost = store.get_latest("x")
        for i in range(6):
            store.put(v(f"k{i}", i, i), value_bytes=1024)
        _, warm_cost = store.get_latest("x")
        assert warm_cost > cold_cost

    def test_scan_returns_matches(self):
        store = LSMStore()
        store.put(v("a", 5, 1))
        store.put(v("b", 50, 2))
        matches, cost = store.scan(lambda key, version: version.value >= 10)
        assert [m.key for m in matches] == ["b"]
        assert cost > 0

    def test_contains(self):
        store = LSMStore()
        assert "x" not in store
        store.put(v("x", 1, 1))
        assert "x" in store

    def test_mav_metadata_increases_bytes(self):
        store = LSMStore()
        plain = v("x", 1, 1)
        heavy = Version("x", 1, Timestamp(2, 1),
                        siblings=frozenset(f"k{i}" for i in range(64)))
        store.put(plain)
        bytes_after_plain = store.stats.bytes_written
        store.put(heavy)
        assert store.stats.bytes_written - bytes_after_plain > bytes_after_plain
