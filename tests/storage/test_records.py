"""Unit tests for versioned records and timestamps."""

import pickle

import pytest

from repro.storage.kvstore import VersionedStore
from repro.storage.records import (
    NULL_TIMESTAMP,
    Timestamp,
    Version,
    initial_version,
)


class TestTimestamp:
    def test_ordering_by_sequence_then_client(self):
        assert Timestamp(1, 5) < Timestamp(2, 1)
        assert Timestamp(2, 1) < Timestamp(2, 2)
        assert not Timestamp(3, 0) < Timestamp(2, 9)

    def test_equality_and_hash(self):
        assert Timestamp(1, 1) == Timestamp(1, 1)
        assert len({Timestamp(1, 1), Timestamp(1, 1), Timestamp(1, 2)}) == 2

    def test_null_timestamp_is_smallest(self):
        assert NULL_TIMESTAMP < Timestamp(0, 0)
        assert NULL_TIMESTAMP < Timestamp(1, 1)

    def test_total_ordering_helpers(self):
        assert Timestamp(2, 2) >= Timestamp(2, 1)
        assert Timestamp(2, 2) > Timestamp(1, 9)
        assert str(Timestamp(3, 4)) == "3.4"


class TestVersion:
    def test_initial_version(self):
        version = initial_version("x")
        assert version.value is None
        assert version.timestamp == NULL_TIMESTAMP
        assert not version.tombstone

    def test_with_siblings(self):
        tagged = Version("x", 1, Timestamp(1, 1), txn_id=7,
                         siblings=frozenset({"x", "y", "z"}))
        assert tagged.siblings == frozenset({"x", "y", "z"})
        assert tagged.value == 1 and tagged.txn_id == 7

    def test_metadata_bytes_grow_with_siblings(self):
        single = Version("x", 1, Timestamp(1, 1), siblings=frozenset({"x"}))
        many = Version("x", 1, Timestamp(1, 1),
                       siblings=frozenset(f"k{i}" for i in range(128)))
        assert single.metadata_bytes == 34
        assert many.metadata_bytes > 1800  # ~1.9 KB at 128 ops, as in the paper

    def test_versions_are_immutable(self):
        version = Version("x", 1, Timestamp(1, 1))
        with pytest.raises(AttributeError):
            version.value = 2

    def test_repr_names_every_field(self):
        version = Version("x", 1, Timestamp(2, 3), txn_id=4,
                          siblings=frozenset({"x"}))
        assert repr(version) == (
            "Version(key='x', value=1, timestamp=Timestamp(sequence=2, "
            "client_id=3), txn_id=4, siblings=frozenset({'x'}), "
            "tombstone=False)")

    def test_round_trips_through_pickle(self):
        """What a ``--jobs`` worker hands back is pickled."""
        version = Version("x", {"n": 1}, Timestamp(2, 3), txn_id=4,
                          siblings=frozenset({"x", "y"}), tombstone=True)
        copy = pickle.loads(pickle.dumps(version))
        assert type(copy) is Version and copy == version


class TestLastWriterWins:
    """A replica keeps every version; the one it reads is the last writer's:
    the greatest timestamp, whatever order the versions arrived in."""

    @staticmethod
    def _latest(*versions):
        store = VersionedStore()
        for version in versions:
            store.install(version)
        return store.latest("x")

    def test_later_timestamp_wins(self):
        older = Version("x", "old", Timestamp(1, 1))
        newer = Version("x", "new", Timestamp(2, 1))
        assert self._latest(older, newer) is newer
        assert self._latest(newer, older) is newer

    def test_client_id_breaks_ties(self):
        a = Version("x", "a", Timestamp(1, 1))
        b = Version("x", "b", Timestamp(1, 2))
        assert self._latest(a, b) is b
        assert self._latest(b, a) is b

    def test_none_loses(self):
        version = Version("x", 1, Timestamp(1, 1))
        assert self._latest().value is None
        assert self._latest(version) is version
