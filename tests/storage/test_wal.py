"""Unit tests for the write-ahead log."""

from repro.storage.wal import WriteAheadLog


class TestWriteAheadLog:
    def test_append_assigns_lsns(self):
        wal = WriteAheadLog()
        wal.append("put", "x", {"v": 1})
        wal.append("put", "y", {"v": 2})
        assert wal.last_lsn == 1
        assert len(wal) == 2

    def test_sync_cost_includes_fsync_and_bytes(self):
        wal = WriteAheadLog(fsync_ms=1.0, bytes_per_ms=1000.0)
        cost = wal.append("put", "x", None, size_bytes=500, sync=True)
        assert cost == 1.0 + 0.5

    def test_async_append_is_cheaper(self):
        wal = WriteAheadLog(fsync_ms=1.0, bytes_per_ms=1000.0)
        async_cost = wal.append("put", "x", None, size_bytes=500, sync=False)
        assert async_cost == 0.5
        # The deferred sync later pays the fsync plus buffered bytes.
        sync_cost = wal.sync()
        assert sync_cost == 1.0 + 0.5

    def test_sync_resets_buffered_bytes(self):
        wal = WriteAheadLog(fsync_ms=1.0, bytes_per_ms=1000.0)
        wal.append("put", "x", None, size_bytes=500, sync=True)
        assert wal.sync() == 1.0  # nothing buffered -> fsync only

    def test_truncate_drops_prefix(self):
        """A bounded log truncates itself: the oldest records go first."""
        wal = WriteAheadLog(max_records=2)
        for index in range(5):
            wal.append("put", f"k{index}", None)
        assert len(wal) == 2 and wal.last_lsn == 4
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
        assert wal.last_lsn == -1
        assert list(wal.replay()) == []
