"""Unit tests for the model catalogue (Table 3 contents)."""

import json
from pathlib import Path

import pytest

from repro.errors import TaxonomyError
from repro.taxonomy.models import (
    AVAILABLE,
    MODELS,
    PREVENTS_LOST_UPDATE,
    PREVENTS_WRITE_SKEW,
    REQUIRES_RECENCY,
    STICKY,
    UNAVAILABLE,
    model,
)


def codes_classified(availability):
    return {code for code, m in MODELS.items() if m.availability == availability}


class TestModelCatalogue:
    def test_table_3_highly_available_row(self):
        expected = {"RU", "RC", "MAV", "I-CI", "P-CI", "WFR", "MR", "MW"}
        assert codes_classified(AVAILABLE) == expected

    def test_table_3_sticky_row(self):
        expected = {"RYW", "PRAM", "Causal"}
        assert codes_classified(STICKY) == expected

    def test_table_3_unavailable_row(self):
        expected = {"CS", "SI", "RR", "1SR", "Recency", "Safe", "Regular",
                    "Linearizable", "Strong-1SR"}
        assert codes_classified(UNAVAILABLE) == expected

    def test_unavailable_models_have_causes(self):
        for m in MODELS.values():
            assert bool(m.unavailability_causes) == (m.availability == UNAVAILABLE), m.code

    def test_table_3_footnote_markers(self):
        assert model("CS").unavailability_causes == (PREVENTS_LOST_UPDATE,)
        assert model("SI").unavailability_causes == (PREVENTS_LOST_UPDATE,)
        assert PREVENTS_WRITE_SKEW in model("RR").unavailability_causes
        assert PREVENTS_WRITE_SKEW in model("1SR").unavailability_causes
        assert model("Linearizable").unavailability_causes == (REQUIRES_RECENCY,)
        assert set(model("Strong-1SR").unavailability_causes) == {
            PREVENTS_LOST_UPDATE, PREVENTS_WRITE_SKEW, REQUIRES_RECENCY,
        }

    def test_is_hat_property(self):
        assert model("RC").is_hat
        assert model("Causal").is_hat       # sticky counts as HAT-compliant
        assert not model("SI").is_hat

    def test_unknown_model_rejected(self):
        with pytest.raises(TaxonomyError):
            model("XXX")

    def test_hat_plus_sticky_count(self):
        hat_models = [m for m in MODELS.values() if m.is_hat]
        assert len(hat_models) == 11  # 8 HA + 3 sticky


# -- the whole table, pinned ------------------------------------------------------

MODELS_PIN = Path(__file__).resolve().parent.parent / "data" / "golden_models_pin.json"


def table_as_pinned() -> dict:
    """Per code: name, kind, Table 3 class and causes, the App. A.3 prohibited
    set (None where a recorded history cannot be checked against the model)
    and the Figure 2 downward closure — everything but ``name`` and ``kind``
    derived from the row's ``extends`` / ``adds`` / ``sticky``."""
    return {code: {
        "name": m.name,
        "kind": m.kind,
        "availability": m.availability,
        "causes": list(m.unavailability_causes),
        "prohibits": None if m.prohibits is None else sorted(m.prohibits),
        "all_weaker": sorted(m.all_weaker),
    } for code, m in MODELS.items()}


def test_every_model_matches_the_pinned_table():
    pinned = json.loads(MODELS_PIN.read_text())
    actual = table_as_pinned()
    assert list(actual) == list(pinned)
    for code in pinned:
        assert actual[code] == pinned[code], code


def test_a_row_states_only_what_its_weaker_models_do_not():
    """No row repeats a phenomenon a model it extends already prohibits, and
    the one sticky mark is Read Your Writes'."""
    for code, m in MODELS.items():
        inherited = {p for weaker in m.all_weaker for p in MODELS[weaker].adds}
        assert not inherited & set(m.adds), code
    assert [code for code, m in MODELS.items() if m.sticky] == ["RYW"]
