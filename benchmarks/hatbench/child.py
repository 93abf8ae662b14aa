"""One repeat of one workload, in a fresh interpreter.

The runner starts this module as ``python -m hatbench.child`` once per
(workload, repeat): in-process repeats grew RSS ~80 MB each and drifted up
to 22 % during sizing, fresh children held steady.  Prints one JSON object
(the last line of stdout) and exits.

Modes: ``plain`` (the untraced repeat every end-to-end number comes from),
``profile`` (the same repeat under cProfile: the traced run), ``obs_off``
(an obs-on workload with tracing and metrics off: the obs overhead base) and
``setup_only`` (set-up, then stop: extra ``setup_s`` samples).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import sys
import time
from typing import Dict, List, Optional

from hatbench.hostclock import SpeedProbe
from hatbench.ledger import SpanLog, attribute_profile, counts, snapshot
from hatbench.spec import OBS_ON

MODES = ("plain", "profile", "obs_off", "setup_only")


def run_repeat(workload: str, seed: int, scale: float, mode: str = "plain",
               spawned_at: Optional[float] = None) -> Dict[str, object]:
    """Set up, measure and check one repeat; returns the JSON-safe record."""
    entered_at = time.time()
    # A spawned child has spent CPU before this line that belongs to set-up;
    # an in-process repeat (the smoke test) has only its caller's.
    entered_cpu_s = time.process_time() if spawned_at is not None else 0.0
    if spawned_at is None:
        spawned_at = entered_at
    spans = SpanLog(workload)
    with SpeedProbe() as setup_probe, spans.span("setup"):
        now = time.perf_counter()
        spans.add("setup.interpreter", now - (entered_at - spawned_at), now)
        with spans.span("setup.import"):
            from hatbench.workloads import WORKLOADS
        prepared = WORKLOADS[workload](
            seed, scale, spans,
            obs=workload in OBS_ON and mode != "obs_off")
    # The child's CPU-seconds from exec to ready (interpreter start, imports,
    # build_testbed, preload, campaign install), in reference seconds at the
    # machine speed sampled from the imports on.  CPU, not wall: a vCPU that
    # the host takes away stretches wall time by a factor no probe can see.
    setup_cpu_s = entered_cpu_s + setup_probe.cpu_s
    setup_s = setup_cpu_s * setup_probe.speed
    record: Dict[str, object] = {
        "workload": workload, "seed": seed, "scale": scale, "mode": mode,
        "setup_s": setup_s, "setup_cpu_s": setup_cpu_s}
    if mode == "setup_only":
        record["spans"] = spans.spans
        return record

    before = snapshot(prepared.testbed)
    profile = cProfile.Profile() if mode == "profile" else None
    # The traced run reports raw CPU-seconds only: chunks sampled under
    # cProfile would be profiled too.
    with SpeedProbe(timer=profile is None) as probe:
        if profile is not None:
            profile.enable()
        with spans.span("run.measured"):
            outcome = prepared.execute()
        with spans.span("post.audit"):
            if prepared.audit is not None:
                prepared.audit()
        if profile is not None:
            profile.disable()

    with spans.span("post.checks"):
        ledger = counts(before, prepared, outcome)
        checks: List[List[object]] = [
            list(check) for check in prepared.check(outcome)]
    committed = max(1, outcome.committed)
    audit_host_s = (spans.seconds("post.audit")
                    if prepared.audit is not None else 0.0)
    record.update({
        "host_cpu_s": probe.cpu_s,
        "host_reference_s": probe.reference_s,
        "host_speed": probe.speed,
        "host_wall_s": probe.wall_s,
        "audit_host_s": audit_host_s,
        "committed": outcome.committed,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "latency_samples": outcome.latency_samples,
        "end_to_end": {
            "setup_s": setup_s,
            "committed_per_host_s": outcome.committed / probe.reference_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "events_per_committed_txn": ledger["sim.events"] / committed,
            "msgs_per_committed_txn": ledger["net.msgs_sent"] / committed,
            "sim_committed_per_s": outcome.sim_committed_per_s,
            "sim_latency_p50_ms": outcome.sim_latency_p50_ms,
            "sim_latency_p99_ms": outcome.sim_latency_p99_ms,
            "committed_share": outcome.committed / max(1, outcome.attempted),
        },
        "counts": ledger,
        "checks": checks,
        "spans": spans.spans,
        "profile": attribute_profile(profile) if profile is not None else None,
    })
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.time() when the runner started this child")
    args = parser.parse_args(argv)
    record = run_repeat(args.workload, args.seed, args.scale, args.mode,
                        args.spawned_at)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
