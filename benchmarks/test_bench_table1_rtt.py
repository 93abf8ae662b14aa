"""Table 1: mean RTTs within an AZ, across AZs, and across regions."""

from repro.net.latency import TABLE_1A_MEAN_RTT_MS, TABLE_1B_MEAN_RTT_MS
from repro.net.measurement import (
    cross_region_mean_table,
    format_table_1c,
    run_ping_study,
)

REGIONS = ["CA", "OR", "VA", "TO", "IR", "SY", "SP", "SI"]


def run_study():
    return run_ping_study(
        samples_per_link=300,
        regions=REGIONS,
        zones_per_region=3,
        hosts_per_zone=3,
    )


def test_table1_rtt_matrix(bench_print):
    study, _topology, _model = run_study()

    intra = study.trace("CA-0-0", "CA-0-1").mean
    inter = study.trace("CA-0-0", "CA-1-0").mean
    matrix = cross_region_mean_table(study, regions=REGIONS)

    lines = [
        "Table 1a (within one AZ):    mean RTT "
        f"{intra:6.2f} ms   (paper: {TABLE_1A_MEAN_RTT_MS:.2f} ms)",
        "Table 1b (across AZs):       mean RTT "
        f"{inter:6.2f} ms   (paper: {TABLE_1B_MEAN_RTT_MS:.2f} ms)",
        "Table 1c (cross-region mean RTTs, ms):",
        format_table_1c(matrix, regions=REGIONS),
    ]
    bench_print("Table 1: EC2 round-trip times", "\n".join(lines))

    # Shape checks: the paper's orderings hold.
    assert intra < inter < matrix[("CA", "OR")]
    slowest = max(matrix.values())
    assert slowest == matrix[("SP", "SI")]
    # Cross-region is 40-647x slower than intra-AZ (paper Section 2.2).
    assert slowest / intra > 40
