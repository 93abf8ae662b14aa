"""Unit tests for isolation-level definitions and the history checker."""

import dataclasses

import pytest

import repro.adya.phenomena as phenomena_module
from repro.adya.history import HistoryBuilder
from repro.adya.levels import (
    CHECKABLE,
    check_all_levels,
    check_history,
    strongest_satisfied,
)
from repro.adya.phenomena import LOST_UPDATE, OTV, PHENOMENA, WRITE_SKEW
from repro.errors import TaxonomyError
from repro.taxonomy.models import MODELS


def prohibits(code):
    return MODELS[code].prohibits


class TestLevelDefinitions:
    def test_all_levels_reference_known_phenomena(self):
        for level in CHECKABLE.values():
            for phenomenon in level.prohibits:
                assert phenomenon in PHENOMENA
        assert len(CHECKABLE) == 15

    def test_read_committed_strictly_stronger_than_read_uncommitted(self):
        assert prohibits("RU") < prohibits("RC")

    def test_mav_extends_read_committed_with_otv(self):
        assert prohibits("MAV") == (
            prohibits("RC") | {OTV}
        )

    def test_snapshot_isolation_prevents_lost_update_not_write_skew(self):
        si = prohibits("SI")
        assert LOST_UPDATE in si and WRITE_SKEW not in si

    def test_repeatable_read_prevents_write_skew(self):
        assert WRITE_SKEW in prohibits("RR")

    def test_serializability_is_the_strongest_isolation(self):
        one_sr = prohibits("1SR")
        for code in ("RU", "RC", "MAV", "RR", "CS"):
            assert prohibits(code) <= one_sr
        for code, level in CHECKABLE.items():
            assert level.kind != "isolation" or level.prohibits <= one_sr, code

    def test_serializability_says_nothing_about_sessions(self):
        """Causal -> 1SR is the one Figure 2 edge that is not containment of
        prohibited sets (Adya's PL-3 has no sessions)."""
        crossing = [(weak, strong.code) for strong in CHECKABLE.values()
                    for weak in strong.all_weaker
                    if not prohibits(weak) <= strong.prohibits]
        assert sorted(set(strong for _weak, strong in crossing)) == ["1SR"]
        assert {weak for weak, _strong in crossing} == {
            "MR", "MW", "RYW", "WFR", "PRAM", "Causal"}

    def test_pram_is_union_of_its_parts(self):
        pram = prohibits("PRAM")
        parts = (prohibits("MR")
                 | prohibits("MW")
                 | prohibits("RYW"))
        assert pram == parts

    def test_causal_is_pram_plus_wfr(self):
        assert prohibits("Causal") == (
            prohibits("PRAM") | prohibits("WFR")
        )


class TestChecker:
    def test_unknown_level_rejected(self):
        with pytest.raises(TaxonomyError):
            check_history(HistoryBuilder().build(), "PL-999")

    def test_unknown_level_message_lists_the_checkable_codes(self):
        with pytest.raises(TaxonomyError) as raised:
            check_history(HistoryBuilder().build(), "PL-999")
        assert str(raised.value) == (
            "unknown isolation level 'PL-999'; expected one of "
            "['1SR', 'CS', 'Causal', 'I-CI', 'MAV', 'MR', 'MW', 'P-CI', 'PRAM', "
            "'RC', 'RR', 'RU', 'RYW', 'SI', 'WFR']")

    @pytest.mark.parametrize(
        "code", ["Recency", "Safe", "Regular", "Linearizable", "Strong-1SR"])
    def test_model_in_the_table_that_no_history_can_be_checked_against(self, code):
        """``master`` claims Linearizable and ``quorum`` Regular: Table 3 has
        them, App. A.3 has no phenomenon for real-time order."""
        with pytest.raises(TaxonomyError, match="in the table of models but has "
                                                "no phenomenon definition"):
            check_history(HistoryBuilder().build(), code)

    def test_all_levels_are_checked_in_one_pass(self, monkeypatch):
        """Each of the 13 phenomena detected once over one DSG (54 detector
        passes and 19 graph builds when every level ran its own)."""
        calls = []

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return wrapper

        for name, row in PHENOMENA.items():
            monkeypatch.setitem(PHENOMENA, name, dataclasses.replace(
                row, detector=counted(name, row.detector)))
        monkeypatch.setattr(phenomena_module, "build_dsg",
                            counted("build_dsg", phenomena_module.build_dsg))
        builder = HistoryBuilder()
        builder.transaction().read("x", from_txn=None, value=0).write("x", 1)
        builder.transaction().read("x", from_txn=None, value=0).write("x", 2)
        reports = check_all_levels(builder.build())
        assert sorted(calls) == sorted([*PHENOMENA, "build_dsg"])
        assert not reports["SI"].satisfied and reports["MAV"].satisfied

    def test_empty_history_satisfies_everything(self):
        history = HistoryBuilder().build()
        for name, report in check_all_levels(history).items():
            assert report.satisfied, name

    def test_report_contains_witnesses(self):
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.read("x", from_txn=None, value=0).write("x", 1)
        t2 = builder.transaction()
        t2.read("x", from_txn=None, value=0).write("x", 2)
        report = check_history(builder.build(), "SI")
        assert not report.satisfied
        assert any(report.violations.values())
        assert "LOST-UPDATE" in str(report)

    def test_strongest_satisfied_shrinks_with_anomalies(self):
        clean = HistoryBuilder()
        c1 = clean.transaction()
        c1.write("x", 1)
        clean_levels = set(strongest_satisfied(clean.build()))

        dirty = HistoryBuilder()
        d1 = dirty.transaction()
        d1.read("x", from_txn=None, value=0).write("x", 1)
        d2 = dirty.transaction()
        d2.read("x", from_txn=None, value=0).write("x", 2)
        dirty_levels = set(strongest_satisfied(dirty.build()))

        assert dirty_levels < clean_levels
        assert "SI" in clean_levels - dirty_levels
