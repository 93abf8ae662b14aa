"""The network measurement study of Section 2.2 (Table 1 and Figure 1).

The paper measured one week of 1 Hz pings between every pair of EC2 regions,
across availability zones, and within one availability zone.  This module
replays that study against the simulated latency model and reports the same
artifacts: the mean-RTT matrices of Table 1 and the RTT CDFs of Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import fmean
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.metrics import _percentile
from repro.net.latency import EC2LatencyModel
from repro.net.topology import Topology, ec2_topology
from repro.sim import RandomStreams

#: Region ordering used by Table 1c (rows CA..SP, columns OR..SI).
TABLE_1C_ORDER = ["CA", "OR", "VA", "TO", "IR", "SY", "SP", "SI"]


@dataclass
class PingTrace:
    """RTT samples for one (src, dst) link."""

    src: str
    dst: str
    samples_ms: List[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return fmean(self.samples_ms) if self.samples_ms else float("nan")

    def percentile(self, q: float) -> float:
        return _percentile(sorted(self.samples_ms), q) if self.samples_ms else float("nan")

    def cdf(self, points: int = 200) -> List[Tuple[float, float]]:
        """(rtt_ms, cumulative fraction) pairs for plotting Figure 1: every
        sample, or ``points`` (at least two) evenly spaced by rank."""
        data, count = sorted(self.samples_ms), len(self.samples_ms)
        ranks = range(count)
        if count > points:
            step = (count - 1) / (points - 1)
            ranks = [int(i * step) for i in range(points - 1)] + [count - 1]
        return [(data[rank], (rank + 1) / count) for rank in ranks]


@dataclass
class MeasurementStudy:
    """Results of a full ping sweep: per-link traces plus summary matrices."""

    traces: Dict[Tuple[str, str], PingTrace] = field(default_factory=dict)


def run_ping_study(
    samples_per_link: int = 2000,
    seed: int = 0,
    regions: Optional[Sequence[str]] = None,
    zones_per_region: int = 3,
    hosts_per_zone: int = 3,
) -> Tuple[MeasurementStudy, Topology, EC2LatencyModel]:
    """Simulate the ping measurement study.

    The returned study contains three families of links, mirroring Table 1:

    * intra-AZ links between the hosts of the first zone of the first region,
    * inter-AZ links between zones of the first region,
    * cross-region links between the first host of each region.
    """
    topology = ec2_topology(
        regions=regions, zones_per_region=zones_per_region, hosts_per_zone=hosts_per_zone
    )
    model = EC2LatencyModel(topology)
    rng = RandomStreams(seed).stream("ping-study")
    study = MeasurementStudy()

    def _measure(src: str, dst: str) -> None:
        trace = PingTrace(src=src, dst=dst)
        for _ in range(samples_per_link):
            trace.samples_ms.append(model.sample_rtt(rng, src, dst))
        study.traces[(src, dst)] = trace

    region_list = topology.regions()
    first_region = region_list[0]

    # Intra-AZ: hosts within the first zone of the first region.
    intra_hosts = [f"{first_region}-0-{h}" for h in range(hosts_per_zone)]
    for i, a in enumerate(intra_hosts):
        for b in intra_hosts[i + 1:]:
            _measure(a, b)

    # Inter-AZ: one host in each zone of the first region.
    az_hosts = [f"{first_region}-{z}-0" for z in range(zones_per_region)]
    for i, a in enumerate(az_hosts):
        for b in az_hosts[i + 1:]:
            _measure(a, b)

    # Cross-region: the first host of every region.
    region_hosts = {region: f"{region}-0-0" for region in region_list}
    for i, ra in enumerate(region_list):
        for rb in region_list[i + 1:]:
            _measure(region_hosts[ra], region_hosts[rb])

    return study, topology, model


def cross_region_mean_table(
    study: MeasurementStudy, regions: Optional[Sequence[str]] = None
) -> Dict[Tuple[str, str], float]:
    """Reproduce Table 1c: mean RTT between region representative hosts."""
    regions = list(regions) if regions is not None else TABLE_1C_ORDER
    matrix: Dict[Tuple[str, str], float] = {}
    for i, ra in enumerate(regions):
        for rb in regions[i + 1:]:
            key = (f"{ra}-0-0", f"{rb}-0-0")
            if key in study.traces:
                matrix[(ra, rb)] = study.traces[key].mean
            elif (key[1], key[0]) in study.traces:
                matrix[(ra, rb)] = study.traces[(key[1], key[0])].mean
    return matrix


def format_table_1c(matrix: Dict[Tuple[str, str], float],
                    regions: Optional[Sequence[str]] = None) -> str:
    """Render the Table 1c upper-triangular matrix as text."""
    regions = list(regions) if regions is not None else TABLE_1C_ORDER
    columns = regions[1:]
    header = "      " + "".join(f"{c:>8}" for c in columns)
    lines = [header]
    for i, row in enumerate(regions[:-1]):
        cells = []
        for column in columns:
            if regions.index(column) <= i:
                cells.append(" " * 8)
                continue
            value = matrix.get((row, column), matrix.get((column, row)))
            cells.append(f"{value:8.1f}" if value is not None else " " * 8)
        lines.append(f"{row:>6}" + "".join(cells))
    return "\n".join(lines)
