"""Benchmark harness: regenerate every table and figure of the evaluation.

* :mod:`repro.bench.metrics` — latency/throughput aggregation,
* :mod:`repro.bench.runner` — closed-loop YCSB clients driving a testbed,
* :mod:`repro.bench.experiments` — one entry point per artifact (Figures
  3A/B/C, 4, 5, 6 and the chaos artifacts), parameters as keyword overrides,
* :mod:`repro.bench.report` — text and JSON rendering of the results.

``python -m repro.bench`` runs each artifact at a quick (CI smoke) or full
parameterisation; the two override sets live in its ``ARTIFACTS`` table.
"""
