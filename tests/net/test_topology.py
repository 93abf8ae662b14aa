"""Unit tests for the datacenter topology."""

import pytest

from repro.errors import NetworkError
from repro.net.topology import (
    EC2_REGIONS,
    SCOPE_CROSS_REGION,
    SCOPE_INTER_AZ,
    SCOPE_INTRA_AZ,
    SCOPE_SAME_HOST,
    Topology,
    ec2_topology,
)


class TestTopology:
    def test_add_and_lookup_site(self):
        topology = Topology()
        site = topology.add_site("a", region="VA", zone="VA-a")
        assert topology.site("a") is site
        assert site.region == "VA"

    def test_default_zone_name(self):
        topology = Topology()
        site = topology.add_site("a", region="VA")
        assert site.zone == "VA-a"

    def test_duplicate_site_rejected(self):
        topology = Topology()
        topology.add_site("a", region="VA")
        with pytest.raises(NetworkError):
            topology.add_site("a", region="OR")

    def test_unknown_site_rejected(self):
        with pytest.raises(NetworkError):
            Topology().site("ghost")

    def test_scopes(self):
        topology = Topology()
        topology.add_site("a1", region="VA", zone="VA-a")
        topology.add_site("a2", region="VA", zone="VA-a")
        topology.add_site("b1", region="VA", zone="VA-b")
        topology.add_site("c1", region="OR", zone="OR-a")
        assert topology.scope("a1", "a1") == SCOPE_SAME_HOST
        assert topology.scope("a1", "a2") == SCOPE_INTRA_AZ
        assert topology.scope("a1", "b1") == SCOPE_INTER_AZ
        assert topology.scope("a1", "c1") == SCOPE_CROSS_REGION

    def test_regions_and_sites_in_region(self):
        topology = Topology()
        topology.add_site("a", region="VA")
        topology.add_site("b", region="OR")
        topology.add_site("c", region="VA", zone="VA-b")
        assert topology.regions() == ["OR", "VA"]
        assert {name for name, site in topology.sites.items()
                if site.region == "VA"} == {"a", "c"}


class TestEC2Topology:
    def test_default_covers_all_eight_regions(self):
        topology = ec2_topology()
        assert sorted(topology.regions()) == sorted(EC2_REGIONS)

    def test_zone_and_host_counts(self):
        topology = ec2_topology(regions=["VA"], zones_per_region=3, hosts_per_zone=2)
        assert len(topology.sites) == 6
        zones = {site.zone for site in topology.sites.values()}
        assert zones == {"VA-a", "VA-b", "VA-c"}

    def test_unknown_region_rejected(self):
        with pytest.raises(NetworkError):
            ec2_topology(regions=["MOON"])
