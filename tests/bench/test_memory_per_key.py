"""Deterministic memory pins: what the store keeps per key.

The paper's YCSB workload touches 100 000 uniformly chosen keys, so every
byte held per key is multiplied by the working set.  Placement is held once
per key — one memo entry pointing at a record shared by every key placed the
same way — and a key's version history is one list.  Measured with
``tracemalloc`` (bytes requested, not RSS), so the numbers depend only on the
interpreter, never on the machine.  Before the shared records the four
placement answers cost 457 B a key on 2×2 and a single-version key 170 B in
the store; they cost 21 B and 85 B.  A read of a key never written keeps
nothing: the bottom version it returns is built for the reader, where a
process-wide memo kept 173 B per distinct key read.
"""

import gc
import tracemalloc
from math import prod

import pytest

from repro.cluster.config import build_cluster_config
from repro.storage.kvstore import VersionedStore
from repro.storage.records import Timestamp, Version

KEYS = [f"user{i}" for i in range(20_000)]


def bytes_kept_by(action) -> int:
    """Bytes still allocated after ``action()`` returns."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        action()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("placement", ["modulo", "ring"])
@pytest.mark.parametrize("regions", [["VA", "OR"],
                                     ["VA", "OR", "IR", "SP", "TO"]])
def test_placement_costs_one_memo_entry_per_key(regions, placement):
    config = build_cluster_config(regions, 2, placement=placement)
    names = config.cluster_names

    def route():
        for key in KEYS:
            replicas = config.replicas_for(key)
            config.placements[key].master
            config.peer_replicas(key, replicas[0])
            for name in names:
                config.placements[key].replicas[config.cluster_index(name)]

    assert bytes_kept_by(route) / len(KEYS) <= 96.0
    distinct = {id(config.replicas_for(key)) for key in KEYS}
    assert len(distinct) <= prod(len(c.servers) for c in config.clusters)


def test_a_single_version_key_costs_one_list():
    store = VersionedStore()
    versions = [Version(key, i, Timestamp(i + 1, 1))
                for i, key in enumerate(KEYS)]

    def install():
        for version in versions:
            store.install(version)

    assert bytes_kept_by(install) / len(KEYS) <= 120.0
    assert len(list(store.keys())) == len(KEYS)


def test_a_read_of_an_unwritten_key_keeps_nothing():
    store = VersionedStore()
    unwritten = [f"unwritten{i}" for i in range(len(KEYS))]

    def read():
        for key in unwritten:
            assert store.latest(key).value is None

    assert bytes_kept_by(read) / len(unwritten) <= 8.0
    assert list(store.keys()) == []
