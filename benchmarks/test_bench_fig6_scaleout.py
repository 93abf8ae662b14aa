"""Figure 6: scale-out — throughput versus total servers (VA + OR clusters).

Shape target: the HAT configurations are shared-nothing, so doubling the
servers (with a proportional number of clients) roughly doubles throughput;
MAV scales slightly sub-linearly (paper: 3.8x for a 5x server increase, due
to storage contention and anti-entropy amplification).
"""

from repro.bench.experiments import figure6_scale_out
from repro.bench.report import format_series

SERVERS_PER_CLUSTER = (2, 4, 8)
DURATION_MS = 400.0


def test_fig6_scale_out(bench_print):
    points = figure6_scale_out(
        servers_per_cluster_values=SERVERS_PER_CLUSTER,
        duration_ms=DURATION_MS, clients_per_server=2)
    bench_print("Figure 6: scale-out (total servers vs. txn/s)",
                format_series(points, value="throughput_txn_s"))

    def throughput(protocol, servers_per_cluster):
        return next(p.throughput_txn_s for p in points
                    if p.protocol == protocol and p.x_value == servers_per_cluster * 2)

    smallest, largest = min(SERVERS_PER_CLUSTER), max(SERVERS_PER_CLUSTER)
    expansion = largest / smallest

    for protocol in ("eventual", "read-committed", "mav"):
        ratio = throughput(protocol, largest) / throughput(protocol, smallest)
        # At least half of linear scaling, and actually growing.
        assert ratio > 0.5 * expansion, (protocol, ratio)
        assert throughput(protocol, largest) > throughput(protocol, smallest)

    # MAV's scaling factor does not exceed eventual's (it carries extra work
    # per write, so it can only do as well or worse).
    mav_ratio = throughput("mav", largest) / throughput("mav", smallest)
    eventual_ratio = throughput("eventual", largest) / throughput("eventual", smallest)
    assert mav_ratio <= eventual_ratio * 1.15
