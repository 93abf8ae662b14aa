"""Layer ceilings: how fast each layer goes with nothing else in the way.

Nineteen micro-benchmarks, public API only.  Each builds its fixture once
(untimed), then runs batches for ``SAMPLE_S`` host CPU-seconds ``SAMPLES``
times and reports the median rate — about one second per ceiling.  They are
upper bounds for the per-layer shares of the traced runs: a layer whose
ceiling did not move cannot explain an end-to-end change.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict

from repro.cluster.node import ServerNode
from repro.loadgen.arrivals import PoissonArrivals
from repro.loadgen.sketch import LatencyDigest
from repro.membership.ring import ConsistentHashRing
from repro.net.latency import FixedLatencyModel
from repro.net.network import Network
from repro.net.topology import Topology
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.sim import Environment
from repro.storage.kvstore import VersionedStore
from repro.storage.lsm import LSMStore
from repro.storage.records import Timestamp, Version
from repro.storage.wal import WriteAheadLog
from repro.workloads.tpcc_driver import TPCCDriverFactory
from repro.workloads.ycsb import YCSBConfig

SAMPLE_S = 0.2
SAMPLES = 5
#: Operations per batch: large enough that the clock check is noise.
BATCH = 5_000

#: A fixture builder: ``make(seed)`` -> ``batch()`` -> operations done.
Maker = Callable[[int], Callable[[], int]]


def _noop(*_args) -> None:
    return None


def _kernel_events(seed: int) -> Callable[[], int]:
    env = Environment()

    def batch() -> int:
        for index in range(BATCH):
            env.schedule(0.1 * (index % 97 + 1), _noop)
        env.run()
        return BATCH
    return batch


def _immediate_events(seed: int) -> Callable[[], int]:
    env = Environment()

    def batch() -> int:
        for _ in range(BATCH):
            env.schedule_now(_noop)
        env.run()
        return BATCH
    return batch


def _process_hops(seed: int) -> Callable[[], int]:
    env = Environment()

    def hopper():
        for _ in range(BATCH):
            yield env.timeout(1.0)

    def batch() -> int:
        env.process(hopper())
        env.run()
        return BATCH
    return batch


def _two_site_network():
    env = Environment()
    topology = Topology()
    topology.add_site("a", region="VA")
    topology.add_site("b", region="VA")
    return env, Network(env, topology, FixedLatencyModel(1.0))


def _send_deliver(seed: int) -> Callable[[], int]:
    env, network = _two_site_network()
    network.register("a", _noop)
    network.register("b", _noop)

    def batch() -> int:
        for _ in range(BATCH):
            network.send("a", "b", "ping")
        env.run()
        return BATCH
    return batch


def _rpc_roundtrips(seed: int) -> Callable[[], int]:
    env, network = _two_site_network()
    network.register("a", _noop)
    network.register("b", lambda message: network.reply(message))

    def batch() -> int:
        for _ in range(BATCH):
            network.rpc("a", "b", "ping")
        env.run()
        return BATCH
    return batch


def _dispatch(seed: int) -> Callable[[], int]:
    env, network = _two_site_network()
    network.register("a", _noop)
    server = ServerNode(env, network, "b")
    server.register_handler("ping", lambda message: (None, 0.0))

    def batch() -> int:
        for _ in range(BATCH):
            network.rpc("a", "b", "ping")
        env.run()
        return BATCH
    return batch


def _versions(keys: int = 250, per_key: int = 20):
    """``BATCH`` versions in timestamp order, ``per_key`` per key."""
    return [Version(key=f"user{k}", value=s, timestamp=Timestamp(s, 1))
            for s in range(per_key) for k in range(keys)]


def _install(seed: int) -> Callable[[], int]:
    versions = _versions()

    def batch() -> int:
        install = VersionedStore(keep_versions=64).install
        for version in versions:
            install(version)
        return len(versions)
    return batch


def _loaded_store():
    store = VersionedStore(keep_versions=64)
    for version in _versions():
        store.install(version)
    return store, [f"user{k}" for k in range(250)] * (BATCH // 250)


def _read_latest(seed: int) -> Callable[[], int]:
    store, keys = _loaded_store()

    def batch() -> int:
        latest = store.latest
        for key in keys:
            latest(key)
        return len(keys)
    return batch


def _read_at_or_before(seed: int) -> Callable[[], int]:
    store, keys = _loaded_store()
    bound = Timestamp(10, 1)

    def batch() -> int:
        read = store.latest_at_or_before
        for key in keys:
            read(key, bound)
        return len(keys)
    return batch


def _lsm_put(seed: int) -> Callable[[], int]:
    versions = _versions()

    def batch() -> int:
        put = LSMStore(keep_versions=64).put
        for version in versions:
            put(version)
        return len(versions)
    return batch


def _wal_append(seed: int) -> Callable[[], int]:
    wal = WriteAheadLog(max_records=1024)

    def batch() -> int:
        append = wal.append
        for _ in range(BATCH):
            append("put", "user1", None)
        return BATCH
    return batch


def _latencies(seed: int, count: int = BATCH):
    rng = random.Random(seed)
    return [rng.lognormvariate(2.0, 0.5) for _ in range(count)]


def _digest_add(seed: int) -> Callable[[], int]:
    values = _latencies(seed)

    def batch() -> int:
        add = LatencyDigest().add
        for value in values:
            add(value)
        return len(values)
    return batch


def _digest_merge(seed: int) -> Callable[[], int]:
    halves = []
    for offset in (0, 1):
        digest = LatencyDigest()
        digest.extend(_latencies(seed + offset, 1_000))
        halves.append(digest)

    def batch() -> int:
        for _ in range(20):
            LatencyDigest().merge(halves[0]).merge(halves[1])
        return 40
    return batch


def _arrivals(seed: int) -> Callable[[], int]:
    process = PoissonArrivals(1_000.0)
    rng = random.Random(seed)

    def batch() -> int:
        return sum(1 for _ in process.arrivals(rng, 0.0, float(BATCH)))
    return batch


def _txn_stream(factory) -> Maker:
    def make(seed: int) -> Callable[[], int]:
        workload = factory.build(seed=seed, session_id=0)

        def batch() -> int:
            for _ in range(500):
                workload.next_transaction()
            return 500
        return batch
    return make


def _span_ops(seed: int) -> Callable[[], int]:
    def batch() -> int:
        tracer = Tracer()
        for index in range(BATCH):
            span = tracer.start_span("rpc:ping", "rpc", None, "a",
                                     float(index))
            tracer.finish(span, index + 1.0)
        return BATCH
    return batch


def _metrics_observe(seed: int) -> Callable[[], int]:
    values = _latencies(seed)

    def batch() -> int:
        observe = MetricsRegistry().observe
        for index, value in enumerate(values):
            observe("latency_ms", float(index), value, group="VA")
        return len(values)
    return batch


def _ring_lookup(seed: int) -> Callable[[], int]:
    ring = ConsistentHashRing([f"s{index}" for index in range(8)])
    keys = [f"user{index}" for index in range(BATCH)]

    def batch() -> int:
        owner_for = ring.owner_for
        for key in keys:
            owner_for(key)
        return len(keys)
    return batch


CEILINGS: Dict[str, Maker] = {
    "sim.kernel_events_per_s": _kernel_events,
    "sim.immediate_events_per_s": _immediate_events,
    "sim.process_hops_per_s": _process_hops,
    "net.send_deliver_msgs_per_s": _send_deliver,
    "net.rpc_roundtrips_per_s": _rpc_roundtrips,
    "cluster.dispatch_reqs_per_s": _dispatch,
    "storage.install_ops_per_s": _install,
    "storage.read_latest_ops_per_s": _read_latest,
    "storage.read_at_or_before_ops_per_s": _read_at_or_before,
    "storage.lsm_put_ops_per_s": _lsm_put,
    "storage.wal_append_ops_per_s": _wal_append,
    "loadgen.digest_add_ops_per_s": _digest_add,
    "loadgen.digest_merge_ops_per_s": _digest_merge,
    "loadgen.arrivals_per_s": _arrivals,
    "workloads.ycsb_txns_per_s": _txn_stream(YCSBConfig()),
    "workloads.tpcc_txns_per_s": _txn_stream(TPCCDriverFactory()),
    "obs.span_ops_per_s": _span_ops,
    "obs.metrics_observe_ops_per_s": _metrics_observe,
    "membership.ring_lookup_ops_per_s": _ring_lookup,
}


def measure(make: Maker, seed: int, sample_s: float = SAMPLE_S,
            samples: int = SAMPLES) -> float:
    """Median operations per host CPU-second over ``samples`` samples."""
    batch = make(seed)
    batch()  # warm caches and lazy set-up outside the timed region
    rates = []
    for _ in range(samples):
        operations = 0
        start = time.process_time()
        while True:
            operations += batch()
            elapsed = time.process_time() - start
            if elapsed >= sample_s:
                break
        rates.append(operations / elapsed)
    return statistics.median(rates)


def run_ceilings(seed: int, sample_s: float = SAMPLE_S,
                 samples: int = SAMPLES) -> Dict[str, float]:
    return {name: measure(make, seed, sample_s, samples)
            for name, make in CEILINGS.items()}


if __name__ == "__main__":
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample-s", type=float, default=SAMPLE_S)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="accepted for symmetry with hatbench.child")
    arguments = parser.parse_args()
    print(json.dumps(run_ceilings(arguments.seed, arguments.sample_s)))
