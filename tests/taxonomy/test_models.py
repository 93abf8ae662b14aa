"""Unit tests for the model catalogue (Table 3 contents)."""

import json
from pathlib import Path

import pytest

from repro.adya.levels import ISOLATION_LEVELS
from repro.errors import TaxonomyError
from repro.taxonomy.lattice import build_lattice
from repro.taxonomy.models import (
    AVAILABLE,
    MODELS,
    PREVENTS_LOST_UPDATE,
    PREVENTS_WRITE_SKEW,
    REQUIRES_RECENCY,
    STICKY,
    UNAVAILABLE,
    model,
    models_by_availability,
)


class TestModelCatalogue:
    def test_table_3_highly_available_row(self):
        expected = {"RU", "RC", "MAV", "I-CI", "P-CI", "WFR", "MR", "MW"}
        actual = {m.code for m in models_by_availability(AVAILABLE)}
        assert actual == expected

    def test_table_3_sticky_row(self):
        expected = {"RYW", "PRAM", "Causal"}
        actual = {m.code for m in models_by_availability(STICKY)}
        assert actual == expected

    def test_table_3_unavailable_row(self):
        expected = {"CS", "SI", "RR", "1SR", "Recency", "Safe", "Regular",
                    "Linearizable", "Strong-1SR"}
        actual = {m.code for m in models_by_availability(UNAVAILABLE)}
        assert actual == expected

    def test_unavailable_models_have_causes(self):
        for m in models_by_availability(UNAVAILABLE):
            assert m.unavailability_causes, m.code

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
        with pytest.raises(TaxonomyError):
            models_by_availability("sometimes available")

    def test_hat_plus_sticky_count(self):
        hat_models = [m for m in MODELS.values() if m.is_hat]
        assert len(hat_models) == 11  # 8 HA + 3 sticky


# -- the whole table, pinned ------------------------------------------------------

MODELS_PIN = Path(__file__).resolve().parent.parent / "data" / "golden_models_pin.json"


def table_as_pinned() -> dict:
    """Per code: name, kind, Table 3 class and causes, the App. A.3 prohibited
    set (None where a recorded history cannot be checked against the model)
    and the Figure 2 downward closure.  ``name`` is the spelling a rendering
    prints (``CheckReport.__str__`` prints the level's)."""
    lattice = build_lattice()
    rows = {}
    for code, m in MODELS.items():
        level = ISOLATION_LEVELS.get(code)
        rows[code] = {
            "name": level.name if level else m.name,
            "kind": m.kind,
            "availability": m.availability,
            "causes": list(m.unavailability_causes),
            "prohibits": sorted(level.prohibits) if level else None,
            "all_weaker": sorted(lattice.all_weaker(code)),
        }
    return rows


def test_every_model_matches_the_pinned_table():
    pinned = json.loads(MODELS_PIN.read_text())
    actual = table_as_pinned()
    assert list(actual) == list(pinned)
    for code in pinned:
        assert actual[code] == pinned[code], code


def test_the_two_tables_spell_one_name_differently():
    assert {code for code, level in ISOLATION_LEVELS.items()
            if level.name != MODELS[code].name} == {"RR"}
