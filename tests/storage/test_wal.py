"""Unit tests for the write-ahead log."""

from repro.storage.wal import BYTES_PER_MS, FSYNC_MS, WriteAheadLog


class TestWriteAheadLog:
    def test_append_assigns_lsns(self):
        wal = WriteAheadLog()
        wal.append("put", "x", {"v": 1})
        wal.append("put", "y", {"v": 2})
        assert wal._next_lsn - 1 == 1
        assert len(wal._records) == 2

    def test_sync_cost_includes_fsync_and_bytes(self):
        wal = WriteAheadLog()
        cost = wal.append("put", "x", None, size_bytes=500_000)
        assert cost == FSYNC_MS + 500_000 / BYTES_PER_MS == 2.9

    def test_sync_resets_buffered_bytes(self):
        wal = WriteAheadLog()
        wal.append("put", "x", None, size_bytes=500)
        assert wal.sync() == FSYNC_MS  # nothing buffered -> fsync only

    def test_truncate_drops_prefix(self):
        """A bounded log truncates itself: the oldest records go first."""
        wal = WriteAheadLog(max_records=2)
        for index in range(5):
            wal.append("put", f"k{index}", None)
        assert len(wal._records) == 2 and wal._next_lsn - 1 == 4
        assert [record.lsn for record in wal.replay()] == [3, 4]

    def test_replay_preserves_order_and_payload(self):
        wal = WriteAheadLog()
        wal.append("put", "x", {"v": 1})
        wal.append("commit", None, {"txn": 7})
        records = list(wal.replay())
        assert [r.kind for r in records] == ["put", "commit"]
        assert records[1].payload == {"txn": 7}

    def test_empty_log(self):
        wal = WriteAheadLog()
        assert wal._next_lsn - 1 == -1
        assert list(wal.replay()) == []
