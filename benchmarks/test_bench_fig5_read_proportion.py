"""Figure 5: read/write mix versus throughput (clusters in VA and OR).

Shape targets: with a read-only workload MAV is within a few percent of
eventual; as the write fraction grows, throughput of every configuration
drops and MAV's gap to eventual widens (writes are what carry MAV's
metadata and second-phase work).
"""

from repro.bench.experiments import figure5_write_proportion
from repro.bench.report import format_series

WRITE_PROPORTIONS = (0.0, 0.5, 1.0)
DURATION_MS = 400.0


def test_fig5_write_proportion(bench_print):
    points = figure5_write_proportion(
        write_proportions=WRITE_PROPORTIONS, duration_ms=DURATION_MS,
        clients_per_cluster=12)
    bench_print("Figure 5: write proportion vs. throughput (txn/s)",
                format_series(points, value="throughput_txn_s"))

    def throughput(protocol, proportion):
        return next(p.throughput_txn_s for p in points
                    if p.protocol == protocol and p.x_value == proportion)

    # All-reads: MAV within a small factor of eventual (paper: within 4.8%).
    assert throughput("mav", 0.0) > 0.7 * throughput("eventual", 0.0)

    # All-writes: every protocol is slower than all-reads, and MAV's relative
    # cost versus eventual grows (paper: within 33% at all writes).
    for protocol in ("eventual", "read-committed", "mav"):
        assert throughput(protocol, 1.0) < throughput(protocol, 0.0)
    read_gap = throughput("mav", 0.0) / throughput("eventual", 0.0)
    write_gap = throughput("mav", 1.0) / throughput("eventual", 1.0)
    assert write_gap <= read_gap + 0.05

    # Master stays well below the HAT configurations at every mix.
    for proportion in WRITE_PROPORTIONS:
        assert throughput("master", proportion) < throughput("read-committed", proportion)
