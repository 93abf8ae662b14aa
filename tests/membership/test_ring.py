"""Unit tests for the consistent-hash ring."""

from collections import Counter

import pytest

from repro.cluster.partitioner import HashPartitioner, _stable_key_hash
from repro.errors import ReproError
from repro.membership.ring import ConsistentHashRing

KEYS = [f"user{i}" for i in range(2000)]


class TestConstruction:
    def test_requires_owners(self):
        with pytest.raises(ReproError):
            ConsistentHashRing([])

    def test_rejects_duplicate_owners(self):
        with pytest.raises(ReproError):
            ConsistentHashRing(["a", "a"])

    def test_single_owner_gets_everything(self):
        ring = ConsistentHashRing(["only"])
        assert all(ring.owner_for(k) == "only" for k in KEYS[:50])


class TestPlacement:
    def test_owner_is_member(self):
        ring = ConsistentHashRing(["s0", "s1", "s2"])
        for key in KEYS[:200]:
            assert ring.owner_for(key) in {"s0", "s1", "s2"}

    def test_same_surface_as_hash_partitioner(self):
        """The ring answers the exact query surface Cluster routes through."""
        for surface in ("owner_for", "owner_of_hash"):
            assert hasattr(ConsistentHashRing(["a"]), surface)
            assert hasattr(HashPartitioner(["a"]), surface)

    def test_key_hash_matches_modulo_partitioner(self):
        # Both placements share one stable SHA-1 hash.
        ring = ConsistentHashRing(["s0", "s1", "s2"])
        modulo = HashPartitioner(["s0", "s1", "s2"])
        for key in KEYS[:20]:
            assert ring.owner_for(key) == ring.owner_of_hash(_stable_key_hash(key))
            assert modulo.owner_for(key) == modulo.owner_of_hash(_stable_key_hash(key))

    def test_distribution_is_roughly_balanced(self):
        ring = ConsistentHashRing([f"s{i}" for i in range(4)])
        counts = Counter(map(ring.owner_for, KEYS))
        expected = len(KEYS) / 4
        assert max(counts.values()) < 2 * expected
        assert min(counts.values()) > expected / 2


class TestMembership:
    def test_with_owner_moves_only_to_the_new_node(self):
        before = ConsistentHashRing(["s0", "s1", "s2"])
        after = before.with_owner("s3")
        for key in KEYS:
            if before.owner_for(key) != after.owner_for(key):
                assert after.owner_for(key) == "s3"

    def test_without_owner_moves_only_from_the_removed_node(self):
        before = ConsistentHashRing(["s0", "s1", "s2"])
        after = before.without_owner("s1")
        for key in KEYS:
            if before.owner_for(key) == "s1":
                assert after.owner_for(key) != "s1"
            else:
                assert after.owner_for(key) == before.owner_for(key)

    def test_with_owner_rejects_existing(self):
        with pytest.raises(ReproError):
            ConsistentHashRing(["a"]).with_owner("a")

    def test_without_owner_rejects_unknown_and_last(self):
        ring = ConsistentHashRing(["a", "b"])
        with pytest.raises(ReproError):
            ring.without_owner("zz")
        with pytest.raises(ReproError):
            ring.without_owner("a").without_owner("b")

    def test_moved_fraction(self):
        def moved(a, b):
            return sum(a.owner_for(key) != b.owner_for(key) for key in KEYS)

        before = ConsistentHashRing(["s0", "s1"])
        assert moved(before, ConsistentHashRing(["s0", "s1"])) == 0
        assert 0 < moved(before, before.with_owner("s2")) < len(KEYS)
