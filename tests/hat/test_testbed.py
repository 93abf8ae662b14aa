"""Tests for testbed assembly."""

import pytest

from repro.cluster.node import ServiceCostModel
from repro.errors import ReproError
from repro.hat.protocols import ALL_PROTOCOLS, protocol_info
from repro.hat.testbed import FIVE_REGION_DEPLOYMENT, Scenario, build_testbed
from repro.replication.antientropy import AntiEntropyConfig
from repro.workloads.ycsb import YCSBConfig


class TestScenario:
    def test_cluster_regions_expansion(self):
        scenario = Scenario(regions=["VA", "OR"], clusters_per_region=2)
        assert scenario.cluster_regions() == ["VA", "VA", "OR", "OR"]

    def test_default_is_single_region(self):
        assert Scenario().cluster_regions() == ["VA"]


@pytest.mark.parametrize("config, field, value", [
    (ServiceCostModel, "concurrency", 0),    # ran to the horizon, 0 commits
    (AntiEntropyConfig, "interval_ms", 0.0),  # ZeroDivisionError in the clock
    (YCSBConfig, "key_count", 0),             # failed at the first key draw
])
def test_a_configuration_that_cannot_run_is_rejected_when_it_is_written(
        config, field, value):
    with pytest.raises(ReproError, match=field):
        config(**{field: value})


class TestBuildTestbed:
    def test_servers_match_configuration(self):
        testbed = build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=3))
        assert len(testbed.servers) == 6
        assert len(testbed.config.cluster_names) == 2

    def test_five_region_deployment(self):
        testbed = build_testbed(Scenario(regions=list(FIVE_REGION_DEPLOYMENT),
                                         servers_per_cluster=1))
        assert len(testbed.servers) == 5
        regions = {cluster.region for cluster in testbed.config.clusters}
        assert regions == set(FIVE_REGION_DEPLOYMENT)

    def test_two_clusters_same_region_use_distinct_zones(self):
        testbed = build_testbed(Scenario(regions=["VA"], clusters_per_region=2,
                                         servers_per_cluster=1))
        zones = {testbed.topology.site(s).zone for s in testbed.config.all_servers}
        assert len(zones) == 2

    def test_every_protocol_has_a_client_factory(self):
        testbed = build_testbed(Scenario(regions=["VA"], servers_per_cluster=1))
        for protocol in ALL_PROTOCOLS:
            client = testbed.make_client(protocol)
            assert client is not None
            assert protocol_info(protocol).name == protocol

    def test_unknown_protocol_rejected(self):
        testbed = build_testbed(Scenario())
        with pytest.raises(ReproError):
            testbed.make_client("three-phase-hope")

    def test_guarantees_stack_by_spec_only(self):
        """The wrapper flags are gone: a guarantee is named in the spec."""
        for flag in ("session", "cut_isolation"):
            with pytest.raises(TypeError, match=flag):
                build_testbed(Scenario()).make_client("read-committed",
                                                      **{flag: True})
        stacked = build_testbed(Scenario()).make_client("read-committed+ci+causal")
        assert stacked.protocol_name == "read-committed+ci+causal"

    def test_clients_are_colocated_with_home_cluster(self):
        testbed = build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=1))
        client = testbed.make_client("eventual",
                                     home_cluster=testbed.config.cluster_names[1])
        client_region = testbed.topology.site(client.node.name).region
        cluster_region = testbed.config.cluster(client.node.home_cluster).region
        assert client_region == cluster_region

    def test_fixed_latency_scenario(self):
        testbed = build_testbed(Scenario(regions=["VA"], servers_per_cluster=2,
                                         fixed_latency_ms=2.0))
        a, b = testbed.config.all_servers[:2]
        assert testbed.network.latency.mean_rtt(a, b) == 4.0

    def test_run_advances_time(self):
        testbed = build_testbed(Scenario())
        before = testbed.env.now
        testbed.run(500.0)
        assert testbed.env.now == before + 500.0


class TestProtocolRegistry:
    def test_hat_protocols_marked_available(self):
        for name in ("eventual", "read-committed", "mav"):
            assert protocol_info(name).highly_available

    def test_non_hat_protocols_marked_unavailable(self):
        for name in ("master", "two-phase-locking", "quorum"):
            assert not protocol_info(name).highly_available

    def test_unknown_protocol_lookup(self):
        with pytest.raises(KeyError):
            protocol_info("mystery")
