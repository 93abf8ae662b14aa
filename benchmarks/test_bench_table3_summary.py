"""Table 3: highly available, sticky available, and unavailable models."""

import hashlib
import json
from pathlib import Path

from repro.bench.__main__ import ARTIFACTS
from repro.taxonomy.models import availability_summary

PINS = (Path(__file__).resolve().parent.parent
        / "tests" / "data" / "golden_artifact_pins.json")


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
    # the table derived from the level definitions is the pinned one.
    assert all(summary.causes[code] for code in summary.unavailable)
    text = ARTIFACTS["table3"].run(True, None).text
    assert text.endswith(summary.as_table())
    pinned = json.loads(PINS.read_text())["table3"]["text"]
    assert hashlib.sha256(text.encode()).hexdigest() == pinned
