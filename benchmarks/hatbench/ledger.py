"""The per-layer ledger: host-time spans, exact counts, cProfile attribution.

Everything here is measured from the benchmark's side of the boundary —
public functions and public ``stats`` objects of the program — so adding the
benchmark changes no file under ``src/``.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from hatbench.spec import LAYERS

_REPRO_MARKER = os.sep + os.path.join("src", "repro") + os.sep


class SpanLog:
    """Host-time spans around the benchmark's own calls, kept in memory.

    Each span records name, start, end (``time.perf_counter`` seconds, plus
    CPU-seconds beside them), its parent span and the workload id.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    def add(self, name: str, start_s: float,
            end_s: Optional[float] = None) -> Dict[str, object]:
        """Record a span under the currently open one.

        With ``end_s`` it is an interval measured elsewhere (the interpreter
        start); without, :meth:`span` closes it.
        """
        record: Dict[str, object] = {
            "id": len(self.spans), "name": name, "workload": self.workload,
            "parent": self._stack[-1] if self._stack else None,
            "start_s": start_s, "end_s": end_s, "cpu_s": None}
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = self.add(name, time.perf_counter())
        self._stack.append(record["id"])
        cpu_start = time.process_time()
        try:
            yield
        finally:
            record["cpu_s"] = time.process_time() - cpu_start
            record["end_s"] = time.perf_counter()
            self._stack.pop()

    def seconds(self, name: str) -> float:
        """Total host CPU-seconds of every span called ``name``."""
        return sum(s["cpu_s"] for s in self.spans
                   if s["name"] == name and s["cpu_s"] is not None)


def snapshot(testbed) -> Dict[str, float]:
    """Additive counters of a deployment, read off its public stats."""
    servers = list(testbed.servers.values())
    net = testbed.network.stats

    def total(getter) -> float:
        return sum(getter(server) for server in servers)

    return {
        "sim.events": testbed.env.events_executed,
        "net.msgs_sent": net.sent,
        "net.msgs_delivered": net.delivered,
        "net.msgs_dropped_partition": net.dropped_partition,
        "net.rpc_timeouts": net.rpc_timeouts,
        "net.bytes_sent": net.bytes_sent,
        "cluster.requests": total(lambda s: s.stats.requests),
        "cluster.busy_sim_ms": total(lambda s: s.stats.busy_ms),
        "cluster.queue_wait_sim_ms": total(lambda s: s.stats.queue_wait_ms),
        "cluster.rejected": total(lambda s: s.stats.rejected),
        "hat.mav_notifies_sent": total(lambda s: s.mav.stats.notifies_sent),
        "hat.mav_promoted": total(lambda s: s.mav.stats.promoted),
        "hat.mav_pending_reads": total(lambda s: s.mav.stats.pending_reads),
        "storage.lsm_puts": total(lambda s: s.store.stats.puts),
        "storage.lsm_gets": total(lambda s: s.store.stats.gets),
        "storage.lsm_flushes": total(lambda s: s.store.stats.flushes),
        "storage.lsm_compactions": total(lambda s: s.store.stats.compactions),
        "storage.lsm_bytes_written": total(
            lambda s: s.store.stats.bytes_written),
        "replication.ae_rounds": total(lambda s: s.anti_entropy.stats.rounds),
        "replication.ae_versions_pushed": total(
            lambda s: s.anti_entropy.stats.versions_pushed),
        "replication.ae_messages": total(
            lambda s: s.anti_entropy.stats.messages),
        "replication.ae_versions_coalesced": total(
            lambda s: s.anti_entropy.stats.versions_coalesced),
    }


def counts(before: Dict[str, float], prepared, outcome) -> Dict[str, float]:
    """Family 1: what the measured interval did, layer by layer.

    Additive counters are deltas over the interval (preload excluded);
    high-water marks and run-level totals are read as they stand.
    """
    testbed = prepared.testbed
    after = snapshot(testbed)
    ledger = {name: after[name] - before[name] for name in after}
    committed = max(1, outcome.committed)
    ledger["cluster.max_queue_depth"] = max(
        server.stats.max_queue_depth for server in testbed.servers.values())
    ledger["replication.ae_rounds_per_txn"] = (
        ledger["replication.ae_rounds"] / committed)
    ledger["loadgen.offered"] = outcome.offered
    ledger["loadgen.shed"] = outcome.shed
    ledger["loadgen.queue_peak"] = outcome.queue_peak
    ledger["loadgen.backlog_final"] = outcome.backlog_final
    ledger["loadgen.retries"] = outcome.retries
    ledger["chaos.fault_actions"] = (
        len(prepared.nemesis.log) if prepared.nemesis is not None else 0)
    tracer, metrics = testbed.tracer, testbed.metrics
    ledger["obs.spans"] = len(tracer.spans) if tracer is not None else 0
    ledger["obs.metric_observations"] = 0 if metrics is None else sum(
        window["count"]
        for series in metrics.timeseries(quantiles=())["series"]
        for window in series["windows"])
    ledger["workloads.ops_per_txn"] = outcome.operations / committed
    ledger["adya.history_txns"] = (
        len(prepared.recorder) if prepared.recorder is not None else 0)
    return ledger


def _layer_of(code) -> str:
    if isinstance(code, str):
        return "builtins"
    filename = code.co_filename
    at = filename.find(_REPRO_MARKER)
    if at < 0:
        return "other"
    package = filename[at + len(_REPRO_MARKER):].split(os.sep, 1)[0]
    return package if package in LAYERS else "other"


def attribute_profile(profile) -> Dict[str, float]:
    """Family 2: cProfile self time and call counts by package.

    Attribution is by file path: a function under ``src/repro/<pkg>/`` is
    layer ``<pkg>``, C builtins are ``builtins``, the rest (stdlib, numpy,
    this harness, repro modules outside the named layers) is ``other``.
    Shares are of total profiled self time, so they sum to 1.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    heap_pushes = 0
    for entry in profile.getstats():
        layer = _layer_of(entry.code)
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        if isinstance(entry.code, str) and "heappush" in entry.code:
            heap_pushes += entry.callcount
    total = sum(self_s.values()) or 1.0
    table: Dict[str, float] = {"sim.heap_pushes": heap_pushes}
    for layer in LAYERS:
        table[f"{layer}.self_share"] = self_s[layer] / total
        table[f"{layer}.calls"] = calls[layer]
    return table
