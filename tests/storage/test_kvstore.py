"""Unit tests for the multi-versioned key-value store."""

import pytest

from repro.errors import StorageError
from repro.storage.kvstore import VersionedStore
from repro.storage.records import NULL_TIMESTAMP, Timestamp, Version


def v(key, value, seq, client=1, txn=None):
    return Version(key=key, value=value, timestamp=Timestamp(seq, client), txn_id=txn)


class TestVersionedStore:
    def test_latest_of_missing_key_is_initial(self):
        store = VersionedStore()
        version = store.latest("x")
        assert version.value is None and version.timestamp == NULL_TIMESTAMP

    def test_install_and_read_latest(self):
        store = VersionedStore()
        store.install(v("x", 1, 1))
        store.install(v("x", 2, 2))
        assert store.latest("x").value == 2

    def test_out_of_order_install_keeps_timestamp_order(self):
        store = VersionedStore()
        store.install(v("x", 2, 2))
        store.install(v("x", 1, 1))
        assert store.latest("x").value == 2
        assert [version.value for version in store.versions("x")] == [1, 2]

    def test_duplicate_timestamp_rejected(self):
        store = VersionedStore()
        assert store.install(v("x", 1, 1)) is True
        assert store.install(v("x", 99, 1)) is False
        assert store.latest("x").value == 1

    def test_latest_at_or_before(self):
        store = VersionedStore()
        for seq in (1, 3, 5):
            store.install(v("x", seq, seq))
        assert store.latest_at_or_before("x", Timestamp(4, 9)).value == 3
        assert store.latest_at_or_before("x", Timestamp(5, 1)).value == 5
        assert store.latest_at_or_before("x", Timestamp(0, 0)) is None
        assert store.latest_at_or_before("missing", Timestamp(9, 9)) is None

    def test_exact_lookup(self):
        store = VersionedStore()
        store.install(v("x", 1, 1))
        assert store.exact("x", Timestamp(1, 1)).value == 1
        assert store.exact("x", Timestamp(2, 1)) is None

    def test_keep_versions_bound(self):
        store = VersionedStore(keep_versions=2)
        for seq in range(1, 6):
            store.install(v("x", seq, seq))
        assert [version.value for version in store.versions("x")] == [4, 5]

    def test_keep_versions_validation(self):
        with pytest.raises(StorageError):
            VersionedStore(keep_versions=0)

    def test_scan_latest_versions(self):
        store = VersionedStore()
        store.install(v("a", 10, 1))
        store.install(v("b", 20, 1))
        store.install(v("b", 25, 2))
        matches = store.scan(lambda key, version: version.value > 15)
        assert {m.key for m in matches} == {"b"}
        assert matches[0].value == 25

    def test_scan_skips_tombstones(self):
        store = VersionedStore()
        store.install(v("a", 10, 1))
        store.install(Version("a", None, Timestamp(2, 1), tombstone=True))
        assert store.scan(lambda key, version: True) == []

    def test_contains_and_len(self):
        store = VersionedStore()
        assert "x" not in store and len(store) == 0
        store.install(v("x", 1, 1))
        assert "x" in store and len(store) == 1
        assert list(store.keys()) == ["x"]
