"""Table 3: highly available, sticky available, and unavailable models."""

from repro.taxonomy.classification import (
    availability_summary,
    cross_check_with_levels,
    unavailability_reasons,
)


def test_table3_availability_summary(bench_print):
    summary = availability_summary()

    bench_print("Table 3: HAT availability classification", summary.as_table())

    assert set(summary.highly_available) == {
        "RU", "RC", "MAV", "I-CI", "P-CI", "WFR", "MR", "MW"}
    assert set(summary.sticky_available) == {"RYW", "PRAM", "Causal"}
    assert set(summary.unavailable) == {
        "CS", "SI", "RR", "1SR", "Recency", "Safe", "Regular", "Linearizable",
        "Strong-1SR"}

    # Every unavailable model cites a cause (Table 3's footnote markers), and
    # the classification is consistent with the Adya-level definitions.
    reasons = unavailability_reasons()
    assert all(reasons[code] for code in summary.unavailable)
    assert cross_check_with_levels() == []
