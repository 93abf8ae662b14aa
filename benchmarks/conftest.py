"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure from the paper's evaluation
and prints the corresponding rows/series.  Because the substrate is a
simulator, absolute numbers differ from the paper's EC2 deployment; the
benchmarks check and report the *shapes* (orderings, ratios, crossovers).

The sweeps come in one size, a few seconds each: these files check shapes.
Performance is measured by one referee, ``benchmarks/hatbench``.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def bench_print(capsys):
    """Print a report so it survives pytest's output capturing."""
    def _print(title: str, body: str) -> None:
        with capsys.disabled():
            print(f"\n=== {title} ===")
            print(body)
    return _print
