"""Tests for the ``python -m repro.bench`` command-line entry point."""

import pytest

from repro.bench.__main__ import ARTIFACTS, build_parser, main
from repro.bench.experiments import FIG3_DEPLOYMENTS, figure3_geo_replication
from repro.bench.report import format_latency_and_throughput


class TestParser:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ARTIFACTS:
            assert name in out

    def test_no_arguments_lists_artifacts(self, capsys):
        assert main([]) == 0
        assert "available artifacts" in capsys.readouterr().out

    def test_unknown_artifact_fails(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown artifact" in capsys.readouterr().err

    def test_quick_is_default(self):
        args = build_parser().parse_args(["table3"])
        assert args.quick is True
        args_full = build_parser().parse_args(["table3", "--full"])
        assert args_full.quick is False

    def test_availability_artifact_registered(self):
        assert "availability" in ARTIFACTS

    def test_json_flag_parses(self):
        args = build_parser().parse_args(["availability", "--json", "out"])
        assert args.json == "out"
        assert build_parser().parse_args(["table3"]).json is None


class TestArtifacts:
    @pytest.mark.parametrize("name", ["table2", "table3", "fig2", "tpcc"])
    def test_static_artifacts_render(self, capsys, name):
        assert main([name]) == 0
        out = capsys.readouterr().out
        assert f"===== {name} =====" in out
        assert len(out.splitlines()) > 5

    def test_table1_quick(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1c" in out and "CA" in out


@pytest.fixture(scope="module")
def fig3_points():
    return figure3_geo_replication(client_counts=(2,), duration_ms=150.0,
                                   servers_per_cluster=2)


@pytest.mark.parametrize("deployment", list(FIG3_DEPLOYMENTS))
def test_fig3_renders_each_panel(fig3_points, deployment):
    """One sweep renders all three of the paper's panels: each runs every
    protocol on its own deployment, and only a panel that spans a WAN puts
    the master an order of magnitude behind eventual."""
    scenario = FIG3_DEPLOYMENTS[deployment]
    panel = [p for p in fig3_points if p.figure == f"fig3{deployment}"]
    clusters = len(scenario.cluster_regions())
    assert [(p.protocol, p.x_value) for p in panel] == [
        (protocol, max(1, 2 // clusters) * clusters)
        for protocol in ("eventual", "read-committed", "mav", "master")]
    latency = {p.protocol: p.mean_latency_ms for p in panel}
    spans_wan = len(set(scenario.regions)) > 1
    assert (latency["master"] > 10 * latency["eventual"]) == spans_wan
    text = format_latency_and_throughput(fig3_points)
    assert text.count(f"figure: fig3{deployment} ") == 2  # latency, throughput
