"""End-to-end chaos runs: the Table 3 availability claim, measured.

The availability experiment drives every protocol through the same
three-phase campaign (baseline, region partition, recovery).  The paper's
claim is an *ordering*: sticky-available stacks keep serving through the
partition while master/quorum configurations go dark for partitioned-away
clients — and the guarantees recorded under chaos must still pass their
Adya checks.
"""

import json

import pytest

from repro.adya.history import HistoryRecorder
from repro.bench.experiments import availability_experiment
from repro.bench.report import availability_report_json, format_availability

QUICK = dict(baseline_ms=1_000.0, partition_ms=2_500.0, recovery_ms=1_000.0)


@pytest.fixture(scope="module")
def sweep():
    """One shared causal-vs-baselines sweep (the expensive part)."""
    return {result.protocol: result
            for result in availability_experiment(
                protocols=("causal", "eventual", "master"), **QUICK)}


class TestAvailabilityOrdering:
    def test_sticky_stack_serves_through_the_partition(self, sweep):
        causal = sweep["causal"]
        for group in causal.groups:
            scores = causal.phase_availability(group)
            assert scores["partition"] >= 0.9, (group, scores)
            assert scores["baseline"] >= 0.9

    def test_master_goes_dark_for_partitioned_away_clients(self, sweep):
        master = sweep["master"]
        for group in master.groups:
            scores = master.phase_availability(group)
            # Each region is cut off from ~half of the key masters, so
            # almost every transaction aborts: ~0% SLO windows.
            assert scores["partition"] <= 0.1, (group, scores)
        # ... yet it was perfectly healthy before the partition.
        assert master.min_phase_availability("baseline") >= 0.9

    def test_ordering_between_protocol_classes(self, sweep):
        """The paper's headline, as an inequality per client group."""
        for group in sweep["causal"].groups:
            hat_low = min(sweep[p].phase_availability(group)["partition"]
                          for p in ("causal", "eventual"))
            master_score = sweep["master"].phase_availability(group)["partition"]
            assert hat_low > master_score + 0.7

    def test_master_recovers_after_heal(self, sweep):
        # The last recovery window may still absorb retries; the phase as a
        # whole must be mostly available again.
        assert sweep["master"].min_phase_availability("recovered") >= 0.5

    def test_timeline_artifact_renders_and_serializes(self, sweep):
        results = list(sweep.values())
        text = format_availability(results)
        assert "partition" in text and "causal" in text and "#" in text
        payload = json.dumps(availability_report_json(results),
                             allow_nan=False)
        decoded = json.loads(payload)
        assert {p["protocol"] for p in decoded["protocols"]} == set(sweep)

    def test_aggregate_stats_match_window_totals(self, sweep):
        for result in sweep.values():
            windowed = sum(w.committed for t in result.groups.values()
                           for w in t.windows)
            # Windows only cover [0, duration); transactions committing in
            # the grace period are aggregate-only.
            assert windowed <= result.stats.committed


class TestAdyaChecksUnderChaos:
    @pytest.mark.parametrize("protocol",
                             ["causal", "read-committed", "mav", "mav+causal"])
    def test_history_recorded_under_chaos_passes_claimed_level(self, protocol,
                                                               claims_hold):
        recorder = HistoryRecorder()
        availability_experiment(protocols=(protocol,), recorder=recorder,
                                baseline_ms=400.0, partition_ms=1_200.0,
                                recovery_ms=400.0)
        history = recorder.build()
        assert len(history.committed()) > 50
        claims_hold(protocol, history)
