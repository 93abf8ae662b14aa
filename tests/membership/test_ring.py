"""Unit tests for the consistent-hash ring."""

import pytest

from repro.cluster.partitioner import HashPartitioner
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

    def test_rejects_zero_virtual_nodes(self):
        with pytest.raises(ReproError):
            ConsistentHashRing(["a"], virtual_nodes=0)

    def test_single_owner_gets_everything(self):
        ring = ConsistentHashRing(["only"])
        assert all(ring.owner_for(k) == "only" for k in KEYS[:50])


class TestPlacement:
    def test_owner_is_member(self):
        ring = ConsistentHashRing(["s0", "s1", "s2"])
        for key in KEYS[:200]:
            assert ring.owner_for(key) in ring.owners

    def test_same_surface_as_hash_partitioner(self):
        """The ring answers the exact query surface Cluster routes through."""
        for surface in ("owner_for", "owners", "keys_per_owner", "key_hash"):
            assert hasattr(ConsistentHashRing(["a"]), surface)
            assert hasattr(HashPartitioner(["a"]), surface)

    def test_key_hash_matches_modulo_partitioner(self):
        # Both placements share one stable SHA-1 hash.
        for key in KEYS[:20]:
            assert (ConsistentHashRing.key_hash(key)
                    == HashPartitioner.key_hash(key))

    def test_distribution_is_roughly_balanced(self):
        ring = ConsistentHashRing([f"s{i}" for i in range(4)])
        counts = ring.keys_per_owner(KEYS)
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
        before = ConsistentHashRing(["s0", "s1"])
        assert before.moved_fraction(before, KEYS) == 0.0
        after = before.with_owner("s2")
        fraction = before.moved_fraction(after, KEYS)
        assert 0.0 < fraction < 1.0
        assert before.moved_fraction(after, []) == 0.0
