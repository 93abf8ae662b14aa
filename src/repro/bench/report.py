"""Text and JSON rendering of experiment series (the benches print these)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bench.experiments import (
    METASTABILITY_PIN_FRACTION,
    METASTABILITY_RECOVERY_FRACTION,
    AvailabilityTimeline,
    ElasticityResult,
    ExperimentPoint,
    MetastabilityResult,
    MetastabilityRun,
    SaturationResult,
    StalenessResult,
    TPCCSimResult,
    TraceProvenanceResult,
    TraceStackResult,
)
from repro.chaos.campaign import Campaign
from repro.chaos.nemesis import NarrationEntry
from repro.obs.critical_path import SEGMENTS


def format_series(points: Sequence[ExperimentPoint],
                  value: str = "throughput_txn_s") -> str:
    """Render points as one table: rows are x-values, columns are protocols.

    ``value`` selects the metric: ``throughput_txn_s``, ``throughput_ops_s``,
    ``mean_latency_ms``, or ``p95_latency_ms``.
    """
    if not points:
        return "(no data)"
    # First-seen order, duplicates dropped.
    protocols = list(dict.fromkeys(point.protocol for point in points))
    x_values = list(dict.fromkeys(point.x_value for point in points))
    lookup: Dict[tuple, ExperimentPoint] = {
        (p.protocol, p.x_value): p for p in points
    }

    header = (f"{points[0].x_label:>20} "
              + "".join(f"{p:>16}" for p in protocols))
    lines = [f"figure: {points[0].figure}   metric: {value}", header,
             "-" * len(header)]
    for x in x_values:
        # ``-``: a missing point, or a latency statistic with no samples.
        cells = [_cell(getattr(lookup.get((protocol, x)), value, None), 16)
                 for protocol in protocols]
        lines.append(f"{x:>20.2f} " + "".join(cells))
    return "\n".join(lines)


def format_latency_and_throughput(points: Sequence[ExperimentPoint]) -> str:
    """Both panels of a Figure 3-style plot: latency and throughput tables."""
    return "\n\n".join([
        format_series(points, value="mean_latency_ms"),
        format_series(points, value="throughput_txn_s"),
    ])


# ---------------------------------------------------------------------------
# Fragments the chaos artifacts share
# ---------------------------------------------------------------------------

def _cell(value: Optional[float], width: int = 9, places: int = 1) -> str:
    """A right-aligned table cell; ``-`` marks a value never observed."""
    if value is None:
        return f"{'-':>{width}}"
    return f"{value:>{width}.{places}f}"


def _fields(source, *names: str) -> Dict:
    """``{name: source.name}`` for each name, in the order given."""
    return {name: getattr(source, name) for name in names}


def _phases_line(campaign: Campaign) -> str:
    return "phases: " + "  ".join(
        f"{p.name} [{p.start_ms:g}, {p.end_ms:g})" for p in campaign.phases)


def _narration_footer(narration: Sequence[NarrationEntry],
                      unit: str = "protocol") -> List[str]:
    """The closing lines of every chaos report: what the nemesis did."""
    if not narration:
        return []
    return (["", f"nemesis narration (identical for every {unit}):"]
            + [f"  {entry}" for entry in narration])


def _campaign_json(campaign: Campaign, actions: bool = True) -> Dict:
    """The campaign block of a chaos payload (phases, optionally actions)."""
    block: Dict = {
        "duration_ms": campaign.duration_ms,
        "phases": [{"name": p.name, "start_ms": p.start_ms,
                    "end_ms": p.end_ms} for p in campaign.phases],
    }
    if actions:
        block["actions"] = [{"at_ms": a.at_ms, "kind": a.kind, "note": a.note}
                            for a in campaign.timeline()]
    return block


def _slo_strips(title: str, results: Sequence, column: int) -> List[str]:
    """SLO header plus one ``#``/``.`` strip per (protocol, client region).

    Each character is one SLO window: ``#`` served (window met the SLO),
    ``.`` did not, ``-`` an edge window the run clipped (not scored).  The
    per-phase columns (``column`` wide) give the fraction of that phase's
    scored windows meeting the SLO — the availability score.
    """
    campaign = results[0].campaign
    slo = results[0].slo
    lines = [
        f"{title} (window = {results[0].window_ms:g} ms)",
        f"SLO per window: >= {slo.min_committed} commit(s), "
        f">= {slo.min_success_fraction:.0%} success"
        + (f", p95 <= {slo.max_p95_latency_ms:g} ms"
           if slo.max_p95_latency_ms is not None else ""),
        _phases_line(campaign),
        "",
    ]
    phase_names = [phase.name for phase in campaign.phases]
    strip_width = max((len(t.windows) for r in results
                       for t in r.groups.values()), default=0)
    header = (f"{'protocol':<16} {'region':<8} {'timeline':<{strip_width}} "
              + "".join(f"{name:>{column}}" for name in phase_names))
    lines += [header, "-" * len(header)]
    for result in results:
        for group in sorted(result.groups):
            strip = "".join("-" if not w.scored
                            else "#" if w.meets(result.slo) else "."
                            for w in result.groups[group].windows)
            scores = result.phase_availability(group)
            lines.append(
                f"{result.protocol:<16} {group:<8} {strip:<{strip_width}} "
                + "".join(_cell(scores.get(name), column, 2)
                          for name in phase_names))
    return lines


def _groups_json(result) -> Dict:
    """Per-client-region availability, phase scores, and window series."""
    return {
        group: {
            "availability": timeline.availability(result.slo),
            "phase_availability": result.phase_availability(group),
            "windows": [w.as_dict() for w in timeline.windows],
        }
        for group, timeline in sorted(result.groups.items())
    }


# ---------------------------------------------------------------------------
# Availability timelines
# ---------------------------------------------------------------------------

def format_availability(results: Sequence[AvailabilityTimeline]) -> str:
    """Render availability timelines: one strip per (protocol, client region)
    (see :func:`_slo_strips` for how to read them)."""
    if not results:
        return "(no data)"
    lines = _slo_strips("Availability under a region partition campaign",
                        results, 10)
    return "\n".join(lines + _narration_footer(results[0].narration))


# ---------------------------------------------------------------------------
# TPC-C through the simulated cluster
# ---------------------------------------------------------------------------

def format_tpcc_sim(results: Sequence[TPCCSimResult]) -> str:
    """One row per protocol: throughput beside the audited anomaly counts."""
    if not results:
        return "(no data)"
    campaign = next((r.campaign for r in results if r.partitioned), None)
    phase_names = [p.name for p in campaign.phases] if campaign else []
    header = (f"{'protocol':<16} {'committed':>9} {'aborted':>8} {'txn/s':>8} "
              f"{'orders':>7} {'dup-ids':>8} {'gaps':>6} {'dbl-deliv':>10}")
    header += "".join(f"{('avail:' + name):>17}" for name in phase_names)
    lines = [
        "TPC-C through the simulated cluster (Section 6.2, measured)",
        "order-id anomalies: duplicate / gapped district order ids; "
        "dbl-deliv: orders billed twice",
        header,
        "-" * len(header),
    ]
    for result in results:
        anomalies = result.anomalies
        line = (f"{result.protocol:<16} {result.stats.committed:>9} "
                f"{result.stats.aborted:>8} "
                f"{result.stats.throughput_txn_s:>8.1f} "
                f"{anomalies.orders_claimed:>7} "
                f"{len(anomalies.duplicate_order_ids):>8} "
                f"{len(anomalies.gapped_order_ids):>6} "
                f"{len(anomalies.double_deliveries):>10}")
        lines.append(line + "".join(
            _cell(result.phase_availability.get(name), 17, 2)
            for name in phase_names))
    return "\n".join(lines + _narration_footer(results[0].narration))


def tpcc_sim_report_json(results: Sequence[TPCCSimResult]) -> Dict:
    """A JSON-safe artifact of the TPC-C simulation sweep."""
    payload: Dict = {"figure": "tpcc-sim", "protocols": []}
    for result in results:
        entry = {
            **_fields(result, "protocol", "partitioned"),
            **_fields(result.stats, "committed", "aborted", "throughput_txn_s"),
            "latency": result.stats.latency.as_dict(),
            "committed_by_type": dict(result.committed_by_type),
            "anomalies": result.anomalies.as_dict(),
        }
        if result.partitioned:
            entry["phase_availability"] = dict(result.phase_availability)
            entry["narration"] = [n.as_dict() for n in result.narration]
        payload["protocols"].append(entry)
    return payload


def availability_report_json(results: Sequence[AvailabilityTimeline]) -> Dict:
    """A JSON-safe artifact of the availability experiment (no NaN anywhere)."""
    payload: Dict = {"figure": "availability", "protocols": []}
    if results:
        payload["window_ms"] = results[0].window_ms
        payload["slo"] = results[0].slo.as_dict()
        payload["campaign"] = _campaign_json(results[0].campaign)
    for result in results:
        payload["protocols"].append({
            "protocol": result.protocol,
            "committed_total": result.stats.committed,
            "aborted_total": result.stats.aborted,
            "groups": _groups_json(result),
        })
    return payload


# ---------------------------------------------------------------------------
# Elasticity: membership churn timelines and rebalance accounting
# ---------------------------------------------------------------------------

def format_elasticity(results: Sequence[ElasticityResult]) -> str:
    """Availability strips through the elasticity campaign plus a rebalance
    table: keys moved versus the consistent-hashing ideal, handoff volume
    and duration, and Adya anomaly counts per protocol."""
    if not results:
        return "(no data)"
    lines = _slo_strips("Availability through elastic membership churn",
                        results, 22)
    lines += ["", "rebalances (identical campaign for every protocol; "
                  "handoff volume varies with the data each run wrote):"]
    rebalance_header = (f"{'protocol':<16} {'event':<6} {'server':<18} "
                        f"{'start':>8} {'ms':>8} {'keys':>6} {'moved':>7} "
                        f"{'ideal':>7} {'versions':>9} {'KiB':>8}")
    lines += [rebalance_header, "-" * len(rebalance_header)]
    for result in results:
        for record in result.rebalances:
            moved = record.keys_moved_fraction
            lines.append(
                f"{result.protocol:<16} {record.kind:<6} {record.server:<18} "
                f"{record.start_ms:>8.0f} "
                + _cell(record.duration_ms if record.done else None, 8)
                + f" {record.keys_moved:>6} " + _cell(moved, 7, 3)
                + f" {record.ideal_fraction:>7.3f} {record.versions_moved:>9} "
                  f"{record.bytes_moved / 1024.0:>8.1f}"
            )
    lines += ["", "Adya anomaly witnesses on the recorded histories:"]
    anomaly_names = list(results[0].anomalies)
    anomaly_header = (f"{'protocol':<16} "
                      + "".join(f"{name:>12}" for name in anomaly_names))
    lines += [anomaly_header, "-" * len(anomaly_header)]
    for result in results:
        lines.append(f"{result.protocol:<16} "
                     + "".join(f"{result.anomalies.get(name, 0):>12}"
                               for name in anomaly_names))
    return "\n".join(lines + _narration_footer(results[0].narration))


# ---------------------------------------------------------------------------
# Saturation: open-loop offered-load ramps and post-heal backlog drain
# ---------------------------------------------------------------------------

def format_saturation(results: Sequence[SaturationResult]) -> str:
    """One row per protocol: the knee, tail latencies, and drain time."""
    if not results:
        return "(no data)"
    first = results[0]
    campaign = first.heal_campaign
    lines = [
        "Open-loop saturation: offered-load ramp over bounded session pools",
        f"logical users: {first.users:,}   sessions: {first.sessions} "
        f"(memory is O(sessions), not O(users))",
        f"ramp: {first.ramp.offered:,} arrivals offered in "
        f"{first.ramp.duration_ms:g} ms; latency is arrival-to-commit "
        "(queueing included)",
        "knee: max windowed committed txn/s; overload@: offered txn/s where "
        "the backlog first exceeded 2x the session count",
        "",
    ]
    header = (f"{'protocol':<16} {'offered':>8} {'committed':>10} "
              f"{'shed':>6} {'knee/s':>8} {'overload@':>10} "
              f"{'p50ms':>9} {'p99ms':>9} {'p999ms':>9} {'qpeak':>6}")
    lines += [header, "-" * len(header)]
    for result in results:
        lines.append(
            f"{result.protocol:<16} {result.ramp.offered:>8} "
            f"{result.ramp.committed:>10} {result.ramp.shed:>6} "
            f"{result.knee_txn_s:>8.1f} "
            + _cell(result.overload_offered_s, 10) + " "
            + _cell(result.p50_ms) + " " + _cell(result.p99_ms) + " "
            + _cell(result.p999_ms) + f" {result.ramp.queue_peak:>6}")
    lines += [
        "",
        "Post-heal backlog drain (fixed offered rate through the canonical "
        "partition campaign):",
        _phases_line(campaign),
        "drain: ms after heal until backlog <= sessions "
        "(0 = never built up, '-' = never drained)",
        "",
    ]
    header = (f"{'protocol':<16} {'offered':>8} {'committed':>10} "
              f"{'aborted':>8} {'backlog-peak':>13} {'final':>6} "
              f"{'drain-ms':>9}")
    lines += [header, "-" * len(header)]
    for result in results:
        peak = max((s.backlog for s in result.heal.backlog), default=0)
        lines.append(
            f"{result.protocol:<16} {result.heal.offered:>8} "
            f"{result.heal.committed:>10} {result.heal.aborted:>8} "
            f"{peak:>13} {result.heal.backlog_final:>6} "
            + _cell(result.drain_ms))
    return "\n".join(lines + _narration_footer(first.narration))


def saturation_report_json(results: Sequence[SaturationResult]) -> Dict:
    """A JSON-safe artifact of the saturation experiment (no NaN anywhere)."""
    payload: Dict = {"figure": "saturation", "protocols": []}
    if results:
        payload["users"] = results[0].users
        payload["sessions"] = results[0].sessions
        payload["heal_campaign"] = _campaign_json(results[0].heal_campaign,
                                                  actions=False)
    for result in results:
        payload["protocols"].append({
            **_fields(result, "protocol", "knee_txn_s", "overload_offered_s",
                      "p50_ms", "p99_ms", "p999_ms"),
            "ramp": {
                **_fields(result.ramp, "offered", "committed", "aborted",
                          "shed", "queue_peak", "backlog_final"),
                "latency": result.ramp.latency.as_dict(),
                "windows": [w.as_dict() for w in result.windows],
            },
            "heal": {
                **_fields(result.heal, "offered", "committed", "aborted"),
                "backlog_peak": max((s.backlog for s in result.heal.backlog),
                                    default=0),
                "backlog_final": result.heal.backlog_final,
                "drain_ms": result.drain_ms,
                "backlog": [s.as_dict() for s in result.heal.backlog],
            },
        })
    return payload


# ---------------------------------------------------------------------------
# Metastability: trigger, sustaining retry feedback, (defended) recovery
# ---------------------------------------------------------------------------

def _metastability_row(run: MetastabilityRun) -> str:
    stats = run.stats
    verdict = "PINNED" if run.pinned else (
        "recovered" if run.recovered else "degraded")
    return (f"{run.protocol:<10} {'on' if run.defended else 'off':>8} "
            f"{run.healthy_rate_s:>10.1f} {run.post_heal_rate_s:>10.1f} "
            + _cell(run.time_to_recover_ms, 11)
            + f" {stats.retries:>8} {stats.retry_denials:>8} "
            f"{stats.breaker_denials:>8} {stats.server_rejected:>8} "
            f"{verdict:>10}")


def format_metastability(results: Sequence[MetastabilityResult]) -> str:
    """Undefended versus defended legs, one pair of rows per protocol."""
    if not results:
        return "(no data)"
    campaign = results[0].undefended.campaign
    lines = [
        "Metastable failure: trigger -> sustaining retry feedback -> recovery",
        _phases_line(campaign),
        "the partition is the trigger; after it heals, capacity-coupled "
        "catch-up plus timed-out",
        "sessions retrying sustain the overload — unless admission control, "
        "bounded catch-up,",
        "retry budgets, and circuit breaking bound the feedback.",
        f"PINNED: post-heal goodput <= {METASTABILITY_PIN_FRACTION:g}x "
        f"healthy; recovered: trailing goodput reached "
        f"{METASTABILITY_RECOVERY_FRACTION:g}x healthy",
        "",
    ]
    header = (f"{'protocol':<10} {'defense':>8} {'healthy/s':>10} "
              f"{'post-heal/s':>10} {'recover-ms':>11} {'retries':>8} "
              f"{'budget-':>8} {'breaker-':>8} {'server-':>8} "
              f"{'verdict':>10}")
    subheader = (f"{'':<10} {'':>8} {'':>10} {'':>10} {'':>11} {'':>8} "
                 f"{'denied':>8} {'denied':>8} {'shed':>8} {'':>10}")
    lines += [header, subheader, "-" * len(header)]
    for result in results:
        lines.append(_metastability_row(result.undefended))
        lines.append(_metastability_row(result.defended))
    return "\n".join(
        lines + _narration_footer(results[0].undefended.narration, "leg"))


def _metastability_run_json(run: MetastabilityRun) -> Dict:
    return {
        **_fields(run, "defended", "healthy_rate_s", "post_heal_rate_s",
                  "pinned", "recovered", "time_to_recover_ms", "heal_at_ms"),
        **_fields(run.stats, "offered", "committed", "aborted", "retries",
                  "retry_denials", "breaker_opens", "breaker_denials",
                  "server_rejected", "backlog_final"),
        "windows": [w.as_dict() for w in run.windows],
    }


def metastability_report_json(results: Sequence[MetastabilityResult]) -> Dict:
    """A JSON-safe artifact of the metastability experiment."""
    payload: Dict = {
        "figure": "metastability",
        "pin_fraction": METASTABILITY_PIN_FRACTION,
        "recovery_fraction": METASTABILITY_RECOVERY_FRACTION,
        "protocols": [],
    }
    if results:
        payload["campaign"] = _campaign_json(
            results[0].undefended.campaign, actions=False)
    for result in results:
        payload["protocols"].append({
            "protocol": result.protocol,
            "undefended": _metastability_run_json(result.undefended),
            "defended": _metastability_run_json(result.defended),
        })
    return payload


# ---------------------------------------------------------------------------
# Tracing: critical-path decomposition and anomaly provenance
# ---------------------------------------------------------------------------

def format_trace(stacks: Sequence[TraceStackResult],
                 provenance: Optional[TraceProvenanceResult] = None) -> str:
    """Per-stack p99 critical-path breakdowns plus the provenance summary."""
    if not stacks:
        return "(no data)"
    lines = [
        "Critical-path latency decomposition (causal tracing on)",
        "segments are exclusive and sum to arrival-to-commit latency; the "
        "breakdown shown is the p99 transaction's",
        "",
    ]
    header = (f"{'protocol':<12} {'condition':<12} {'txns':>6} {'mean':>8} "
              f"{'p99':>8} " + "".join(f"{name:>10}" for name in SEGMENTS))
    lines += [header, "-" * len(header)]
    for result in stacks:
        aggregate = result.critical_path
        breakdown = aggregate["p99_breakdown_ms"]
        lines.append(
            f"{result.protocol:<12} {result.condition:<12} "
            f"{aggregate['transactions']:>6} "
            f"{aggregate['mean_latency_ms']:>8.2f} "
            f"{aggregate['p99_latency_ms']:>8.2f} "
            + "".join(f"{breakdown[name]:>10.2f}" for name in SEGMENTS))
    if provenance is not None:
        joined = provenance.provenance
        lines += [
            "",
            "Anomaly provenance (traced TPC-C under the canonical partition "
            "campaign):",
            f"protocol {provenance.protocol}: "
            f"{joined['anomalies_joined']} anomalies joined to traces, "
            f"{joined['anomalies_concurrent']} with overlapping spans, "
            f"{joined['anomalies_under_fault']} inside a fault window; "
            f"{len(joined['implicated_faults'])} fault window(s) implicated",
        ]
        for entry in joined["entries"][:5]:
            traces = " / ".join(
                f"trace {t['trace_id']} [{t['start_ms']:.1f}, "
                f"{t['end_ms']:.1f}) on {t['site']}"
                for t in entry["traces"])
            lines.append(
                f"  {entry['anomaly']} w={entry['warehouse']} "
                f"d={entry['district']} o={entry['order_id']}: {traces}"
                + (f"  (faults {entry['fault_windows']})"
                   if entry["fault_windows"] else ""))
        if len(joined["entries"]) > 5:
            lines.append(f"  ... and {len(joined['entries']) - 5} more")
    narration = next((result.narration for result in stacks
                      if result.condition == "partitioned"
                      and result.narration), [])
    return "\n".join(lines + _narration_footer(narration))


def trace_report_json(stacks: Sequence[TraceStackResult],
                      provenance: Optional[TraceProvenanceResult] = None
                      ) -> Dict:
    """A JSON-safe artifact of the trace experiment (no NaN anywhere).

    The Chrome trace-event export is deliberately *not* embedded here —
    the bench writes it beside this payload as ``trace_events.json``.
    """
    payload: Dict = {"figure": "trace", "segments": list(SEGMENTS),
                     "stacks": []}
    for result in stacks:
        payload["stacks"].append({
            **_fields(result, "protocol", "condition"),
            **_fields(result.stats, "committed", "aborted", "throughput_txn_s"),
            **_fields(result, "traces", "spans", "critical_path",
                      "faulted_critical_path", "fault_windows"),
            "narration": [n.as_dict() for n in result.narration],
        })
    if provenance is not None:
        # "provenance" (bare) is reserved for the artifact header the CLI
        # injects at write time; this is the anomaly join.
        payload["anomaly_provenance"] = {
            "protocol": provenance.protocol,
            "committed": provenance.stats.committed,
            "aborted": provenance.stats.aborted,
            "anomalies": provenance.anomalies.as_dict(),
            "spans": provenance.spans,
            "exported_traces": provenance.exported_traces,
            "narration": [n.as_dict() for n in provenance.narration],
            **provenance.provenance,
        }
    return payload


def elasticity_report_json(results: Sequence[ElasticityResult]) -> Dict:
    """A JSON-safe artifact of the elasticity experiment (no NaN anywhere)."""
    payload: Dict = {"figure": "elasticity", "protocols": []}
    if results:
        payload["window_ms"] = results[0].window_ms
        payload["slo"] = results[0].slo.as_dict()
        payload["campaign"] = _campaign_json(results[0].campaign)
    for result in results:
        first = result.first_join()
        payload["protocols"].append({
            "protocol": result.protocol,
            "committed_total": result.stats.committed,
            "aborted_total": result.stats.aborted,
            "anomalies": dict(result.anomalies),
            "rebalances": [record.as_dict() for record in result.rebalances],
            "groups": _groups_json(result),
            "first_join": first.as_dict() if first is not None else None,
        })
    return payload


# ---------------------------------------------------------------------------
# Staleness observatory: t-visibility / k-staleness recency tables
# ---------------------------------------------------------------------------

def _eventual_p99s(result: StalenessResult):
    """(healthy, partition) p99 t-visibility — the headline's two numbers."""
    return (result.phase_quantile("healthy", "t_visibility_ms", "p99"),
            result.phase_quantile("partition", "t_visibility_ms", "p99"))


def format_staleness(results: Sequence[StalenessResult]) -> str:
    """Per-protocol, per-phase recency table plus the eventual headline.

    t-visibility rows show commit-to-install lag quantiles (bucketed by
    commit time); k-staleness rows show versions-behind-freshest for the
    reads each stack served.  ``-`` marks a censored cell: the phase saw
    no observation (master's partition-era writes, whose replica pushes
    are dropped and never retransmitted, are the canonical case — their
    lag is unbounded, not small).
    """
    if not results:
        return "(no data)"
    campaign = results[0].campaign
    phase_names = [phase.name for phase in campaign.phases]
    lines = [
        "Staleness observatory: recency through healthy -> partition -> "
        f"rebalance (window = {results[0].window_ms:g} ms)",
        _phases_line(campaign),
        "",
    ]
    header = (f"{'protocol':<14} {'metric':<22} "
              + "".join(f"{name + ' p50':>15}{name + ' p99':>15}"
                        for name in phase_names))
    lines += [header, "-" * len(header)]
    labels = {"t_visibility_ms": "t-visibility (ms)",
              "k_staleness_versions": "k-staleness (versions)"}
    for result in results:
        for metric, label in labels.items():
            cells = [_cell(result.phase_quantile(name, metric, which), 15)
                     for name in phase_names for which in ("p50", "p99")]
            lines.append(f"{result.protocol:<14} {label:<22} " + "".join(cells))
    for result in results:
        if result.protocol != "eventual":
            continue
        healthy, partition = _eventual_p99s(result)
        if healthy and partition is not None:
            lines += ["", (
                "headline: eventual's partition-phase p99 t-visibility is "
                f"{partition / healthy:.1f}x its healthy p99 "
                f"({partition:.1f} ms vs {healthy:.1f} ms) — recency is an "
                "operating-conditions property, not a protocol guarantee.")]
    return "\n".join(lines + _narration_footer(results[0].narration))


def staleness_report_json(results: Sequence[StalenessResult]) -> Dict:
    """A JSON-safe artifact of the staleness experiment (no NaN anywhere)."""
    payload: Dict = {"figure": "staleness", "protocols": []}
    if results:
        payload["window_ms"] = results[0].window_ms
        payload["campaign"] = _campaign_json(results[0].campaign)
    for result in results:
        entry = {
            "protocol": result.protocol,
            "committed_total": result.stats.committed,
            "aborted_total": result.stats.aborted,
            "phase_recency": result.phase_recency,
            "cdfs": {metric: [{"q": q, "value": value}
                              for q, value in points]
                     for metric, points in result.cdfs.items()},
            **_fields(result, "summaries", "counters", "timeseries",
                      "prometheus"),
        }
        if result.protocol == "eventual":
            healthy, partition = _eventual_p99s(result)
            entry["partition_over_healthy_p99"] = (
                partition / healthy
                if healthy and partition is not None else None)
        payload["protocols"].append(entry)
    return payload
