"""Figure 4: transaction length versus throughput (clusters in VA and OR).

Shape targets: eventual, RC, and master per-operation throughput are flat in
transaction length, while MAV's declines as transactions grow because its
metadata (the sibling list) grows linearly with transaction length.
"""

from repro.bench.experiments import figure4_transaction_length
from repro.bench.report import format_series

LENGTHS = (1, 8, 32)
DURATION_MS = 500.0


def test_fig4_transaction_length(bench_print):
    points = figure4_transaction_length(
        lengths=LENGTHS, duration_ms=DURATION_MS, clients_per_cluster=3)
    bench_print("Figure 4: transaction length vs. throughput (ops/s)",
                format_series(points, value="throughput_ops_s"))

    def ops_throughput(protocol, length):
        return next(p.throughput_ops_s for p in points
                    if p.protocol == protocol and p.x_value == length)

    shortest, longest = min(LENGTHS), max(LENGTHS)

    # MAV degrades with transaction length (metadata overhead)...
    mav_ratio = ops_throughput("mav", longest) / ops_throughput("mav", shortest)
    # ...more than Read Committed does over the same sweep.
    rc_ratio = ops_throughput("read-committed", longest) / \
        ops_throughput("read-committed", shortest)
    assert mav_ratio < rc_ratio

    # At single-operation transactions MAV is close to eventual (paper: within 18%).
    assert ops_throughput("mav", shortest) > 0.5 * ops_throughput("eventual", shortest)

    # Master remains far below the HAT configurations at every length.
    for length in LENGTHS:
        assert ops_throughput("master", length) < ops_throughput("eventual", length)
