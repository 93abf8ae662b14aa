"""Differential property: the MAV ack state machine that records a write's
own ack in place is the one that handed it to ``record_acks``.

``MAVState.add_write`` records the replica's own acknowledgement itself,
reads the destinations off the keys' placement records, and both it and
``record_acks`` end a transaction through one ``_promote`` transition.  The
reference below is that state machine as it stood before, self-contained: a
dataclass entry per transaction, destinations from ``config.replicas_for``,
the own ack handed to ``record_acks`` as a batch of one, and the stable set
checked before the pending one.  Random schedules over one to three
transactions of one to four keys, on two- and three-region deployments with
one or two servers a cluster — repeated local writes, ack batches with
duplicates inside a batch and across batches, acks before any local write
and after stability, acks from servers that replicate none of the keys, and
pending reads — must give the same answer from both after every step: the
writes promoted (the same ``Version`` objects, in the same order), the acks
owed per destination, which transactions are stable, the pending, tracked and
stable counts, the pending reads and the stats.
"""

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.config import build_cluster_config
from repro.hat.mav_state import MAVState
from repro.storage.records import Timestamp, Version

KEYS = ("a", "b", "c", "d")
#: An acknowledging server that replicates no key of any deployment here.
STRANGER = "cluster9-XX-s0"


@dataclass
class ReferenceEntry:
    expected_acks: int
    acks: Set[Tuple[str, str]] = field(default_factory=set)
    writes: List[Version] = field(default_factory=list)
    destinations: Optional[Tuple[str, ...]] = None


@dataclass
class ReferenceStats:
    puts: int = 0
    notifies_sent: int = 0
    notifies_received: int = 0
    promoted: int = 0
    pending_reads: int = 0


class ReferenceMAVState:
    """The replica's ack state machine with the own ack routed through
    :meth:`record_acks` and destinations asked of ``replicas_for``."""

    def __init__(self, name, config):
        self.name = name
        self.replicas_for = config.replicas_for
        self.replication_factor = config.replication_factor()
        self._pending: Dict[Timestamp, ReferenceEntry] = {}
        self._pending_by_key: Dict[str, Dict[Timestamp, Version]] = {}
        self._stable: Set[Timestamp] = set()
        self.owed: Dict[str, list] = {}
        self.stats = ReferenceStats()

    def add_write(self, version):
        timestamp = version.timestamp
        if timestamp in self._stable:
            return None
        by_key = self._pending_by_key.setdefault(version.key, {})
        if timestamp in by_key:
            return None
        by_key[timestamp] = version
        self.stats.puts += 1
        siblings = version.siblings or (version.key,)
        entry = self._pending.get(timestamp)
        if entry is None:
            entry = self._pending[timestamp] = ReferenceEntry(
                len(siblings) * self.replication_factor)
        entry.writes.append(version)
        destinations = entry.destinations
        if destinations is None:
            replicas_for = self.replicas_for
            destinations = entry.destinations = tuple(
                {replica for sibling in siblings
                 for replica in replicas_for(sibling)})
        name, owed = self.name, self.owed
        ack = (timestamp, name, version.key, entry.expected_acks)
        for server in destinations:
            if server != name:
                owed.setdefault(server, []).append(ack)
        return self.record_acks((ack,)) if name in destinations else []

    def record_acks(self, acks):
        promoted = []
        pending, stable = self._pending, self._stable
        for timestamp, origin, key, expected in acks:
            if timestamp in stable:
                continue
            entry = pending.get(timestamp)
            if entry is None:
                entry = pending[timestamp] = ReferenceEntry(expected)
            entry.acks.add((origin, key))
            if len(entry.acks) < entry.expected_acks:
                continue
            del pending[timestamp]
            stable.add(timestamp)
            for version in entry.writes:
                by_key = self._pending_by_key[version.key]
                del by_key[timestamp]
                if not by_key:
                    del self._pending_by_key[version.key]
            promoted += entry.writes
        self.stats.notifies_received += len(acks)
        self.stats.promoted += len(promoted)
        return promoted

    def is_stable(self, timestamp):
        return timestamp in self._stable

    def read_pending(self, key, required):
        self.stats.pending_reads += 1
        by_key = self._pending_by_key.get(key)
        return by_key.get(required) if by_key is not None else None

    def pending_count(self):
        return sum(len(by_key) for by_key in self._pending_by_key.values())

    def tracked_transactions(self):
        return len(self._pending)

    def stable_count(self):
        return len(self._stable)


def _observe(state, timestamps):
    return (dict(state.owed), [state.is_stable(ts) for ts in timestamps],
            state.pending_count(), state.tracked_transactions(),
            state.stable_count(), asdict(state.stats))


def _same_result(got, expected):
    if expected is None:
        return got is None
    return (got is not None and len(got) == len(expected)
            and all(a is b for a, b in zip(got, expected)))


def _run(regions, servers_per_cluster, here, transactions, steps):
    """Drive both state machines through ``steps``; return how many writes
    each path promoted: ``(by the own ack, by received acks)``."""
    config = build_cluster_config(list(regions), servers_per_cluster)
    servers = config.all_servers
    here = servers[here % len(servers)]
    origins = servers + [STRANGER]
    state, reference = MAVState(here, config), ReferenceMAVState(here, config)
    versions, acks_for, timestamps = [], [], []
    for seq, (keys, bare) in enumerate(transactions, start=1):
        timestamp = Timestamp(seq, 1)
        siblings = frozenset() if bare and len(keys) == 1 else frozenset(keys)
        expected = len(siblings or keys) * config.replication_factor()
        timestamps.append(timestamp)
        versions.append([Version(key, f"v{seq}-{key}", timestamp, txn_id=seq,
                                 siblings=siblings) for key in sorted(keys)])
        acks_for.append((timestamp, sorted(keys), expected))
    promoted_by_own, promoted_by_acks = 0, 0
    last_batch = []
    for step in steps:
        kind = step[0]
        if kind == "write":
            txn_writes = versions[step[1] % len(versions)]
            version = txn_writes[step[2] % len(txn_writes)]
            got, expected = state.add_write(version), reference.add_write(version)
            promoted_by_own += len(expected or ())
        elif kind in ("acks", "again"):
            if kind == "acks":
                last_batch = []
                for txn, origin, key in step[1]:
                    timestamp, keys, expected_acks = acks_for[txn % len(acks_for)]
                    last_batch.append((timestamp, origins[origin % len(origins)],
                                       keys[key % len(keys)], expected_acks))
            got = state.record_acks(list(last_batch))
            expected = reference.record_acks(list(last_batch))
            promoted_by_acks += len(expected)
        else:
            timestamp = timestamps[step[1] % len(timestamps)]
            key = KEYS[step[2]]
            got = state.read_pending(key, timestamp)
            expected = reference.read_pending(key, timestamp)
            got, expected = [got] if got else [], [expected] if expected else []
        assert _same_result(got, expected), (step, got, expected)
        assert _observe(state, timestamps) == _observe(reference, timestamps), step
    return promoted_by_own, promoted_by_acks


transactions = st.lists(
    st.tuples(st.sets(st.sampled_from(KEYS), min_size=1, max_size=4),
              st.booleans()),  # a one-key write may carry no sibling set
    min_size=1, max_size=3)
acks = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 8),
                          st.integers(0, 3)), max_size=8)
steps = st.lists(st.one_of(
    st.tuples(st.just("write"), st.integers(0, 2), st.integers(0, 3)),
    st.tuples(st.just("acks"), acks),
    st.tuples(st.just("again")),  # the last batch, delivered again
    st.tuples(st.just("read"), st.integers(0, 2), st.integers(0, 3))),
    max_size=40)


@settings(max_examples=500, deadline=None)
@given(regions=st.sampled_from([("VA", "OR"), ("VA", "OR", "SG")]),
       servers_per_cluster=st.integers(1, 2), here=st.integers(0, 5),
       transactions=transactions, steps=steps)
# Acks ahead of the write; the own ack then completes the set.
@example(regions=("VA", "OR"), servers_per_cluster=1, here=0,
         transactions=[({"a", "b"}, False)],
         steps=[("acks", [(0, 1, 0), (0, 1, 1), (0, 0, 1)]), ("write", 0, 0)])
# Duplicates in a batch and across batches, then acks after stability.
@example(regions=("VA", "OR"), servers_per_cluster=1, here=0,
         transactions=[({"a"}, False)],
         steps=[("write", 0, 0), ("acks", [(0, 1, 0)] * 3), ("again",),
                ("acks", [(0, 1, 0), (0, 2, 0)]), ("write", 0, 0)])
def test_the_ack_state_machine_matches_the_record_acks_reference(
        regions, servers_per_cluster, here, transactions, steps):
    _run(regions, servers_per_cluster, here, transactions, steps)


def test_the_schedules_reach_both_promotion_paths():
    """Writes promote by the own ack and by received acks — otherwise the
    property above compares two state machines that never go stable."""
    by_own, _ = _run(("VA", "OR"), 1, 0, [({"a", "b"}, False)],
                     [("acks", [(0, 1, 0), (0, 1, 1), (0, 0, 1)]),
                      ("write", 0, 0)])
    _, by_acks = _run(("VA", "OR", "SG"), 2, 0, [({"a", "b", "c"}, False)],
                      [("write", 0, k) for k in range(3)]
                      + [("acks", [(0, origin, k) for origin in range(6)
                                   for k in range(3)])])
    assert by_own == 1 and by_acks > 0
