"""Property tests: the consistent-hash ring's load-bearing guarantees.

Elastic membership rests on three ring properties: placement is a pure
function of the owner set (same owners anywhere, any insertion order, any
process — same placement), load is balanced across owners within the
virtual-node tolerance, and a single join disrupts at most ~1/n of the key
population (Karger's minimal-disruption bound, the reason a rebalance moves
megabytes instead of the whole store).
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.cluster.partitioner import _stable_key_hash
from repro.membership.ring import ConsistentHashRing

KEYS = [f"user{i}" for i in range(1500)]

#: Owner-name suffixes: distinct short tokens so node sets vary per example.
node_counts = st.integers(min_value=2, max_value=6)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def owners_for(count: int, salt: int) -> list:
    return [f"node{salt}-{i}" for i in range(count)]


class TestDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(count=node_counts, salt=seeds)
    def test_placement_is_a_pure_function_of_the_owner_set(self, count, salt):
        owners = owners_for(count, salt)
        a = ConsistentHashRing(owners)
        b = ConsistentHashRing(owners)
        for key in KEYS[:200]:
            assert a.owner_for(key) == b.owner_for(key)

    @settings(max_examples=25, deadline=None)
    @given(count=node_counts, salt=seeds)
    def test_placement_ignores_owner_insertion_order(self, count, salt):
        owners = owners_for(count, salt)
        a = ConsistentHashRing(owners)
        b = ConsistentHashRing(list(reversed(owners)))
        for key in KEYS[:200]:
            assert a.owner_for(key) == b.owner_for(key)

    def test_tokens_do_not_depend_on_pythonhashseed(self):
        """Ring tokens derive from SHA-1, never from builtin hash()."""
        import hashlib

        token = _stable_key_hash("node0-0#vn0")
        digest = hashlib.sha1(b"node0-0#vn0").digest()
        assert token == int.from_bytes(digest[:8], "big")


class TestBalance:
    @settings(max_examples=15, deadline=None)
    @given(count=node_counts, salt=seeds)
    def test_load_within_virtual_node_tolerance(self, count, salt):
        ring = ConsistentHashRing(owners_for(count, salt))
        counts = Counter(map(ring.owner_for, KEYS))
        expected = len(KEYS) / count
        # 128 virtual nodes keep per-owner load within ~±10% of ideal;
        # 2.5x is ~17 sigma, far beyond honest statistical flutter.
        assert max(counts.values()) <= 2.5 * expected
        assert min(counts.values()) >= expected / 2.5


class TestMinimalDisruption:
    @settings(max_examples=15, deadline=None)
    @given(count=node_counts, salt=seeds)
    def test_one_join_moves_at_most_its_fair_share(self, count, salt):
        owners = owners_for(count, salt)
        before = ConsistentHashRing(owners)
        after = before.with_owner(f"node{salt}-new")
        moved = sum(before.owner_for(key) != after.owner_for(key)
                    for key in KEYS) / len(KEYS)
        ideal = 1.0 / (count + 1)
        # The fair share times virtual-node imbalance and sampling noise:
        # the joiner's 128 virtual arcs put its owned fraction within
        # ~±9% (one sigma) of ideal, so 1.6x is ~7 sigma — while a
        # placement that rehashed everything would move 1 - 1/(n+1),
        # several times this bound for every ring size tested.  (A flat
        # additive slack flaked here: small rings have the widest
        # relative imbalance, and hypothesis eventually found a 2-node
        # ring at +24%.)
        assert moved <= 1.6 * ideal
        # The join must actually take load (placement cannot ignore it).
        assert moved > 0.0

    @settings(max_examples=15, deadline=None)
    @given(count=node_counts, salt=seeds)
    def test_moved_keys_all_land_on_the_new_node(self, count, salt):
        owners = owners_for(count, salt)
        before = ConsistentHashRing(owners)
        new = f"node{salt}-new"
        after = before.with_owner(new)
        for key in KEYS:
            if before.owner_for(key) != after.owner_for(key):
                assert after.owner_for(key) == new

    @settings(max_examples=10, deadline=None)
    @given(count=node_counts, salt=seeds)
    def test_leave_is_the_exact_inverse_of_join(self, count, salt):
        owners = owners_for(count, salt)
        ring = ConsistentHashRing(owners)
        round_trip = ring.with_owner("extra").without_owner("extra")
        for key in KEYS[:300]:
            assert ring.owner_for(key) == round_trip.owner_for(key)
