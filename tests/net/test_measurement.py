"""Tests for the ping measurement study (Table 1 / Figure 1)."""

import pytest

from repro.net.measurement import (
    cross_region_mean_table,
    format_table_1c,
    run_ping_study,
)
from repro.net.latency import TABLE_1A_MEAN_RTT_MS, TABLE_1B_MEAN_RTT_MS


@pytest.fixture(scope="module")
def study():
    study, topology, model = run_ping_study(
        samples_per_link=400,
        regions=["CA", "OR", "VA", "SP", "SI"],
        zones_per_region=3,
        hosts_per_zone=3,
    )
    return study


class TestPingStudy:
    def test_intra_az_matches_table_1a(self, study):
        trace = study.traces["CA-0-0", "CA-0-1"]
        assert trace.mean == pytest.approx(TABLE_1A_MEAN_RTT_MS, rel=0.2)

    def test_inter_az_matches_table_1b(self, study):
        trace = study.traces["CA-0-0", "CA-1-0"]
        assert trace.mean == pytest.approx(TABLE_1B_MEAN_RTT_MS, rel=0.2)

    def test_cross_region_matches_table_1c(self, study):
        matrix = cross_region_mean_table(study, regions=["CA", "OR", "VA", "SP", "SI"])
        assert matrix[("CA", "OR")] == pytest.approx(22.5, rel=0.15)
        assert matrix[("SP", "SI")] == pytest.approx(362.8, rel=0.15)

    def test_ordering_of_scopes(self, study):
        """Intra-AZ is 1.8-6.4x faster than inter-AZ and 40-647x faster than WAN."""
        intra = study.traces["CA-0-0", "CA-0-1"].mean
        inter = study.traces["CA-0-0", "CA-1-0"].mean
        cross = study.traces["CA-0-0", "OR-0-0"].mean
        assert intra < inter < cross
        assert cross / intra > 20

    def test_p95_exceeds_mean(self, study):
        trace = study.traces["SI-0-0", "SP-0-0"]
        assert trace.percentile(95) > trace.mean

    def test_cdf_is_monotone(self, study):
        cdf = study.traces["CA-0-0", "OR-0-0"].cdf(points=50)
        rtts = [x for x, _ in cdf]
        fractions = [y for _, y in cdf]
        assert rtts == sorted(rtts)
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    def test_table_formatting(self, study):
        matrix = cross_region_mean_table(study, regions=["CA", "OR", "VA", "SP", "SI"])
        text = format_table_1c(matrix, regions=["CA", "OR", "VA", "SP", "SI"])
        assert "CA" in text and "SI" in text
        # One numeric cell per pair should appear.
        assert any(char.isdigit() for char in text)

    def test_determinism(self):
        study_a, _, _ = run_ping_study(samples_per_link=50, regions=["CA", "OR"], seed=5)
        study_b, _, _ = run_ping_study(samples_per_link=50, regions=["CA", "OR"], seed=5)
        assert study_a.traces["CA-0-0", "OR-0-0"].mean == pytest.approx(
            study_b.traces["CA-0-0", "OR-0-0"].mean
        )
