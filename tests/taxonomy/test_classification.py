"""Unit tests for the Table 3 availability classification."""

from repro.bench.__main__ import ARTIFACTS
from repro.hat.protocols import HAT_PROTOCOLS, NON_HAT_PROTOCOLS, protocol_info
from repro.taxonomy.models import availability_summary


class TestAvailabilitySummary:
    def test_table_3_shape(self):
        summary = availability_summary()
        assert summary.highly_available == sorted(
            ["I-CI", "MAV", "MR", "MW", "P-CI", "RC", "RU", "WFR"])
        assert summary.sticky_available == sorted(["Causal", "PRAM", "RYW"])
        assert len(summary.unavailable) == 9

    def test_causes_attached_to_unavailable_models(self):
        summary = availability_summary()
        for code in summary.unavailable:
            assert summary.causes[code]

    def test_rendered_table_mentions_all_rows(self):
        text = availability_summary().as_table()
        assert "HA" in text and "Sticky" in text and "Unavailable" in text
        assert "MAV" in text and "Causal" in text and "SI" in text


class TestCrossChecks:
    def test_classification_consistent_with_level_definitions(self):
        """The classes and causes are derived from the level definitions, so
        the two cannot disagree; what can drift is the derivation, and the
        derived Table 3 the bench prints is pinned (``artifact/table3/text``)."""
        text = ARTIFACTS["table3"].run(True, None).text
        assert text.endswith(availability_summary().as_table())

    def test_protocol_registry_agrees_with_taxonomy(self):
        """Every implemented HAT protocol must target a HAT-compliant model,
        and every non-HAT protocol a non-HAT model."""
        for name in HAT_PROTOCOLS:
            assert protocol_info(name).highly_available
        for name in NON_HAT_PROTOCOLS:
            assert not protocol_info(name).highly_available
