"""Golden pins: the artifacts a refactor must leave byte-identical — the
quick availability (pinned before tracing landed) and staleness payloads,
every artifact's JSON and text on the artifact suites' small sweeps, the
simulation-free tables, and one canonical kernel run with tracing and
metrics off and on.  Each goes through ``assert_pin`` (``tests/pins.py``),
whose own tests close this module.
"""

import copy
import json

import pytest

from pins import PINS, PinBook


def quick(name):
    """A ``--quick`` artifact's payload and its rendering as written to disk."""
    from repro.bench.__main__ import ARTIFACTS

    payload = ARTIFACTS[name].run(True, None).payload
    return payload, json.dumps(payload, indent=2, allow_nan=False) + "\n"


@pytest.fixture(scope="module")
def availability():
    return quick("availability")


@pytest.fixture(scope="module")
def staleness():
    return quick("staleness")


class TestGoldenAvailability:
    def test_quick_payload_is_bit_identical(self, availability, assert_pin):
        assert_pin("availability-quick", *availability)


class TestGoldenStaleness:
    def test_quick_payload_matches_pin(self, staleness, assert_pin):
        assert_pin("staleness-quick", *staleness)

    def test_partition_inflates_eventual_p99_tenfold(self, staleness):
        """The acceptance headline: under a cross-region partition the
        eventual stack's p99 t-visibility blows up by >= 10x over healthy
        operation — recency is an operating-conditions property."""
        eventual, = [entry for entry in staleness[0]["protocols"]
                     if entry["protocol"] == "eventual"]
        assert eventual["partition_over_healthy_p99"] >= 10.0


#: Sweep name (``artifact_sweep`` in tests/conftest.py) -> the report
#: module's (JSON builder, text formatter); None where a form does not exist.
PINNED_ARTIFACTS = {
    "tpcc_sim_healthy": ("tpcc_sim_report_json", "format_tpcc_sim"),
    "tpcc_sim_partitioned": ("tpcc_sim_report_json", "format_tpcc_sim"),
    "saturation": ("saturation_report_json", "format_saturation"),
    "metastability": ("metastability_report_json", "format_metastability"),
    "trace": ("trace_report_json", "format_trace"),
    "staleness": ("staleness_report_json", "format_staleness"),
    "elasticity": ("elasticity_report_json", "format_elasticity"),
    "figure4": (None, "format_series"),
    "figure5": (None, "format_series"),
}


class TestGoldenArtifactPins:
    """Every artifact's JSON payload and text rendering on the small sweeps
    the artifact suites already run (zero extra simulation): a refactor of
    the experiment/report layer must leave all of them byte-identical."""

    @pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
    def test_rendered_forms_match_pin(self, name, artifact_sweep, assert_pin):
        from repro.bench import report

        results = artifact_sweep(name)
        # The trace experiment returns (stacks, provenance); its renderers
        # take both, and the Chrome export rides beside the payload.
        args = results if name == "trace" else (results,)
        to_json, to_text = PINNED_ARTIFACTS[name]
        assert_pin(f"artifact/{name}/text", getattr(report, to_text)(*args))
        if to_json is not None:
            assert_pin(f"artifact/{name}/json", getattr(report, to_json)(*args))
        if name == "trace":
            assert_pin("artifact/trace/chrome", results[1].chrome)

    @pytest.mark.parametrize("name", ["fig2", "table2", "table3", "tpcc"])
    def test_static_artifact_text_matches_pin(self, name, assert_pin):
        """The simulation-free artifacts, as ``python -m repro.bench`` prints
        them: Tables 2 and 3, Figure 2 and the TPC-C compliance table."""
        from repro.bench.__main__ import ARTIFACTS

        assert_pin(f"artifact/{name}/text", ARTIFACTS[name].run(True, None).text)


class TestGoldenKernelRun:
    """The canonical causal run, observability off and on.

    Tracing and metrics are bookkeeping layered on the same events: a run
    with either (or both) switched on must execute the *identical* event
    sequence as the untraced run the golden pins — if a span or a recency
    observation perturbs the simulation, every traced artifact is suspect.
    """

    @pytest.mark.parametrize("tracing, metrics", [
        (False, False), (True, False), (False, True), (True, True)])
    def test_canonical_causal_run_matches_pin(self, tracing, metrics, assert_pin):
        from repro.bench.runner import RunConfig, run_workload
        from repro.hat.testbed import Scenario, build_testbed
        from repro.workloads.ycsb import YCSBConfig

        config = RunConfig(
            protocol="causal",
            scenario=Scenario(regions=["VA", "OR"], servers_per_cluster=2,
                              seed=0, tracing=tracing, metrics=metrics),
            workload=YCSBConfig(),
            duration_ms=400.0,
            seed=0,
        )
        testbed = build_testbed(config.scenario)
        stats = run_workload(config, testbed=testbed)
        assert_pin("kernel-run/causal", {
            "protocol": config.protocol,
            "events_executed": testbed.env.events_executed,
            "committed": stats.committed, "aborted": stats.aborted,
            "throughput_txn_s": stats.throughput_txn_s,
            "mean_latency_ms": stats.latency.mean,
            "p95_latency_ms": stats.latency.p95})
        # The instrumentation must actually have been on, not silently off.
        if tracing:
            assert len(testbed.tracer.spans) > stats.committed
        if metrics:
            registry = testbed.metrics
            assert registry.counter_total("staleness_installs_total") > 0
            assert registry.counter_total("staleness_reads_total") > 0


class TestAssertPin:
    """The helper itself, on the real availability payload and pin."""

    @pytest.fixture
    def moved(self, availability):
        """A copy of the payload to perturb, and what its check then says."""
        payload = copy.deepcopy(availability[0])

        def message():
            with pytest.raises(pytest.fail.Exception) as failed:
                PinBook().check("availability-quick", payload)
            return str(failed.value)
        return payload, message

    def test_a_perturbed_leaf_is_named_by_its_key_path(self, moved):
        payload, message = moved
        payload["protocols"][0]["committed_total"] = -1
        assert message().count("\n  /") == 1
        assert "\n  /protocols/0/committed_total: 3163 -> -1\n" in message()

    def test_a_leaf_below_depth_3_is_named_by_its_depth_3_ancestor(self, moved):
        payload, message = moved
        payload["protocols"][0]["groups"]["OR"]["availability"] = -1
        assert "\n  /protocols/0/groups: '#" in message()

    def test_an_added_and_a_removed_key_are_each_named(self, moved):
        payload, message = moved
        payload["protocols"][0]["added"] = 1
        del payload["protocols"][1]["committed_total"]
        assert "/protocols/0/added added\n  /protocols/1/committed_total removed" \
            in message()

    def test_repin_of_an_unchanged_tree_is_byte_identical(self, availability, tmp_path):
        copied = tmp_path / PINS.name
        copied.write_bytes(PINS.read_bytes())
        book = PinBook(copied, repin=True)
        book.check("availability-quick", *availability)
        assert book.write() == [f"re-pinned {PINS.name}: 0 pin(s) moved"]
        assert copied.read_bytes() == PINS.read_bytes()
        book.check("availability-quick", availability[0])
        assert book.moved == {"availability-quick": ["only the rendering moved"]}
