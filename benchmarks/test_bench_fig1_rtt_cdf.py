"""Figure 1: CDF of RTTs for intra-AZ, inter-AZ, and cross-region links."""

from repro.net.measurement import run_ping_study

#: The links Figure 1 plots: an intra-AZ link, an inter-AZ link, a nearby
#: region pair (CA:OR), and the slowest region pair (SI:SP).  The ping study
#: measures intra-/inter-AZ links in the alphabetically first region (CA),
#: standing in for the paper's us-east links.
LINKS = [
    ("intra-AZ (east-b:east-b)", ("CA-0-0", "CA-0-1")),
    ("inter-AZ (east-c:east-d)", ("CA-1-0", "CA-2-0")),
    ("CA:OR", ("CA-0-0", "OR-0-0")),
    ("SI:SP", ("SI-0-0", "SP-0-0")),
]


def run_study():
    return run_ping_study(
        samples_per_link=500,
        regions=["CA", "OR", "VA", "SP", "SI"],
        zones_per_region=3,
        hosts_per_zone=3,
    )


def test_fig1_rtt_cdf(bench_print):
    study, _topology, _model = run_study()

    lines = [f"{'link':<28} {'p10':>9} {'p50':>9} {'p90':>9} {'p99':>9}  (RTT ms)"]
    summaries = {}
    for label, (src, dst) in LINKS:
        trace = study.traces[src, dst]
        summaries[label] = trace
        lines.append(
            f"{label:<28} {trace.percentile(10):>9.2f} {trace.percentile(50):>9.2f} "
            f"{trace.percentile(90):>9.2f} {trace.percentile(99):>9.2f}"
        )
    bench_print("Figure 1: RTT CDFs by link class", "\n".join(lines))

    # Shape: the CDFs are ordered — intra-AZ strictly left of inter-AZ,
    # which is strictly left of both cross-region links, at every quantile.
    for quantile in (10, 50, 90):
        assert summaries["intra-AZ (east-b:east-b)"].percentile(quantile) < \
            summaries["inter-AZ (east-c:east-d)"].percentile(quantile)
        assert summaries["inter-AZ (east-c:east-d)"].percentile(quantile) < \
            summaries["CA:OR"].percentile(quantile)
        assert summaries["CA:OR"].percentile(quantile) < \
            summaries["SI:SP"].percentile(quantile)

    # Each CDF is a valid distribution function.
    for _label, (src, dst) in LINKS:
        cdf = study.traces[src, dst].cdf(points=100)
        fractions = [fraction for _rtt, fraction in cdf]
        assert fractions == sorted(fractions)
