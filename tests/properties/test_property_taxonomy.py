"""Property-based tests for Figure 2's model order and the partitioner."""

from hypothesis import given, settings, strategies as st

from repro.cluster.partitioner import HashPartitioner
from repro.taxonomy.models import (
    AVAILABLE,
    MODELS,
    STICKY,
    UNAVAILABLE,
    combination_availability,
    is_antichain,
)

MODEL_CODES = sorted(MODELS)

model_codes = st.sampled_from(MODEL_CODES)


class TestLatticeProperties:
    @given(model_codes, model_codes)
    def test_antisymmetry(self, a, b):
        if a != b and b in MODELS[a].all_weaker:
            assert a not in MODELS[b].all_weaker

    @given(model_codes, model_codes, model_codes)
    def test_transitivity(self, a, b, c):
        if b in MODELS[a].all_weaker and c in MODELS[b].all_weaker:
            assert c in MODELS[a].all_weaker

    @given(model_codes)
    def test_stronger_and_weaker_are_disjoint(self, code):
        stronger = {other for other, m in MODELS.items() if code in m.all_weaker}
        assert not (stronger & MODELS[code].all_weaker)

    @given(st.lists(model_codes, min_size=1, max_size=5, unique=True))
    def test_combination_availability_monotone(self, codes):
        """Adding a model can never make a combination *more* available."""
        ranking = {AVAILABLE: 0, STICKY: 1, UNAVAILABLE: 2}
        combined = combination_availability(codes)
        for code in codes:
            assert ranking[combined] >= ranking[MODELS[code].availability]

    @given(st.lists(model_codes, min_size=2, max_size=4, unique=True))
    def test_antichain_excludes_comparable_pairs(self, codes):
        if is_antichain(codes):
            for i, a in enumerate(codes):
                for b in codes[i + 1:]:
                    assert a not in MODELS[b].all_weaker | {b}
                    assert b not in MODELS[a].all_weaker


class TestPartitionerProperties:
    @given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=5,
                    unique=True),
           st.text(min_size=1, max_size=20))
    @settings(max_examples=80)
    def test_owner_always_member_and_stable(self, owners, key):
        partitioner = HashPartitioner(owners)
        owner = partitioner.owner_for(key)
        assert owner in owners
        assert owner == HashPartitioner(owners).owner_for(key)

    @given(st.lists(st.text(min_size=1, max_size=8), min_size=2, max_size=6,
                    unique=True))
    @settings(max_examples=40)
    def test_every_partition_index_in_range(self, owners):
        partitioner = HashPartitioner(owners)
        for i in range(50):
            assert 0 <= partitioner.partition_index(f"key{i}") < len(owners)
