"""Figure 3: YCSB latency and throughput versus client count, by deployment.

Three sub-figures, as in the paper:

* 3A — two clusters inside one datacenter,
* 3B — clusters in Virginia and Oregon,
* 3C — five clusters across five regions.

Shape targets: within one datacenter, ``master`` costs roughly 2x the latency
of the HAT configurations; across regions, ``master`` latency jumps by one to
two orders of magnitude while eventual/RC/MAV stay near their single-DC
latency; MAV throughput is a constant factor below eventual/RC.
"""

from functools import lru_cache

import pytest

from repro.bench.experiments import figure3_geo_replication
from repro.bench.report import format_latency_and_throughput

CLIENTS = (2, 6)
DURATION_MS = 500.0


@lru_cache(maxsize=None)
def figure3(servers):
    """All three panels at ``servers`` per cluster, swept once per size."""
    return figure3_geo_replication(client_counts=CLIENTS,
                                   duration_ms=DURATION_MS,
                                   servers_per_cluster=servers)


def by_protocol(points, metric="mean_latency_ms"):
    """metric per protocol, averaged over the sweep's x-values."""
    grouped = {}
    for point in points:
        grouped.setdefault(point.protocol, []).append(getattr(point, metric))
    return {protocol: sum(values) / len(values) for protocol, values in grouped.items()}


@pytest.mark.parametrize("deployment,servers", [
    ("A-single-dc", 2),
    ("B-two-regions", 2),
    ("C-five-regions", 1),
])
def test_fig3_geo_replication(bench_print, deployment, servers):
    points = [point for point in figure3(servers)
              if point.figure == f"fig3{deployment}"]
    bench_print(f"Figure 3{deployment}: YCSB vs. number of clients",
                format_latency_and_throughput(points))

    latency = by_protocol(points, "mean_latency_ms")
    throughput = by_protocol(points, "throughput_txn_s")

    # HAT configurations beat master on throughput and latency everywhere.
    for hat in ("eventual", "read-committed", "mav"):
        assert throughput[hat] > throughput["master"]
        assert latency[hat] < latency["master"]

    if deployment == "A-single-dc":
        # Single datacenter: master is slower but within roughly an order of
        # magnitude (the paper reports ~2x latency, ~half the throughput).
        assert latency["master"] < 20 * latency["read-committed"]
    else:
        # Geo-replicated: master pays hundreds of ms; HATs stay local.
        assert latency["master"] > 50.0
        assert latency["read-committed"] < 30.0
        # One to two orders of magnitude separation (paper: 10-100x).
        assert latency["master"] / latency["read-committed"] > 10.0
