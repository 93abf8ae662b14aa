"""Datacenter topology: regions, availability zones, and sites.

The paper measures three scopes of communication (Section 2.2):

* within a single availability zone (Table 1a),
* across availability zones of one region (Table 1b),
* across geographic regions (Table 1c).

A :class:`Site` is one machine placement: it belongs to an availability zone,
which belongs to a region.  The :class:`Topology` answers "what scope
separates these two sites?", which the latency model uses to pick a
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.errors import NetworkError

#: Scope constants, ordered from closest to farthest.
SCOPE_SAME_HOST = "same-host"
SCOPE_INTRA_AZ = "intra-az"
SCOPE_INTER_AZ = "inter-az"
SCOPE_CROSS_REGION = "cross-region"

SCOPES = (SCOPE_SAME_HOST, SCOPE_INTRA_AZ, SCOPE_INTER_AZ, SCOPE_CROSS_REGION)

#: The seven (plus one) EC2 regions from Table 1c, keyed by the paper's
#: two-letter abbreviation.
EC2_REGIONS = {
    "CA": "us-west-1 (California)",
    "OR": "us-west-2 (Oregon)",
    "VA": "us-east-1 (Virginia)",
    "TO": "ap-northeast-1 (Tokyo)",
    "IR": "eu-west-1 (Ireland)",
    "SY": "ap-southeast-2 (Sydney)",
    "SP": "sa-east-1 (Sao Paulo)",
    "SI": "ap-southeast-1 (Singapore)",
}


@dataclass(frozen=True)
class Site:
    """A placement for one simulated machine."""

    name: str
    region: str
    zone: str

    def __str__(self) -> str:
        return f"{self.name}@{self.region}/{self.zone}"


@dataclass
class Topology:
    """A set of sites plus scope queries between them."""

    sites: Dict[str, Site] = field(default_factory=dict)

    def add_site(self, name: str, region: str, zone: Optional[str] = None) -> Site:
        """Register a site; ``zone`` defaults to ``<region>-a``."""
        if name in self.sites:
            raise NetworkError(f"duplicate site name: {name!r}")
        site = Site(name=name, region=region, zone=zone or f"{region}-a")
        self.sites[name] = site
        return site

    def site(self, name: str) -> Site:
        """Look up a site by name."""
        try:
            return self.sites[name]
        except KeyError:
            raise NetworkError(f"unknown site: {name!r}") from None

    def scope(self, a: str, b: str) -> str:
        """Return the communication scope between sites ``a`` and ``b``."""
        sa, sb = self.site(a), self.site(b)
        if sa == sb:
            return SCOPE_SAME_HOST
        if sa.region != sb.region:
            return SCOPE_CROSS_REGION
        if sa.zone != sb.zone:
            return SCOPE_INTER_AZ
        return SCOPE_INTRA_AZ

    def regions(self) -> List[str]:
        """All regions that currently have at least one site."""
        return sorted({site.region for site in self.sites.values()})


def ec2_topology(
    regions: Optional[Iterable[str]] = None,
    zones_per_region: int = 1,
    hosts_per_zone: int = 1,
) -> Topology:
    """Build a topology shaped like the paper's EC2 deployment.

    ``regions`` defaults to all eight regions of Table 1c.  Host names follow
    ``"<region>-<zone index>-<host index>"`` (e.g. ``"VA-0-1"``).
    """
    topology = Topology()
    selected = list(regions) if regions is not None else list(EC2_REGIONS)
    for region in selected:
        if region not in EC2_REGIONS:
            raise NetworkError(
                f"unknown EC2 region {region!r}; expected one of {sorted(EC2_REGIONS)}"
            )
        for zone_index in range(zones_per_region):
            zone = f"{region}-{chr(ord('a') + zone_index)}"
            for host_index in range(hosts_per_zone):
                topology.add_site(
                    name=f"{region}-{zone_index}-{host_index}",
                    region=region,
                    zone=zone,
                )
    return topology
