"""Differential property test: parking the backlog changes no push.

``AntiEntropyService._push_dirty`` examines an entry once per mark and once
more each time the routing stamp moves.  The reference here is the loop it
replaced — re-coalesce and re-examine *every* undelivered entry on *every*
round — so it needs no stamp and no parked set.  Whatever marks, partitions,
isolations and membership flips happen in between, with no per-round cap
both must send the same ``(dst, [version...])`` messages in the same order,
coalesce the same number of versions, count the same rounds, sample the same
backlog and hand over the same pending entries.

With a cap the two deliberately differ (stranded entries used to eat the
cap), so the reference is the new rule done by brute force: entries stranded
under the current stamp are rescanned every round — and must yield nothing —
without counting toward the cap; when the stamp moves they re-enter the
queue ahead of the fresh marks.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from repro.cluster.config import build_cluster_config
from repro.net.partitions import PartitionManager
from repro.replication.antientropy import AntiEntropyConfig, AntiEntropyService
from repro.storage.records import Timestamp, Version

REGIONS = ["VA", "OR", "SG"]
SELF = "cluster0-VA-s0"
#: Servers a membership step may remove or (re-)add; each cluster keeps s0.
FLIPPABLE = ["cluster0-VA-s1", "cluster1-OR-s1", "cluster1-OR-s2",
             "cluster2-SG-s1", "cluster2-SG-s2"]
SITES = [f"cluster{i}-{region}-s{n}"
         for i, region in enumerate(REGIONS) for n in range(3)]
KEYS = ["a", "b", "c", "d"]
BATCH = 3

marks = st.tuples(
    st.just("mark"), st.sampled_from(KEYS),
    st.integers(1, 6),                                    # timestamp sequence
    st.booleans(),                                        # MAV sibling version
    st.lists(st.sampled_from(SITES), max_size=3, unique=True))  # delivered=
steps = st.lists(st.one_of(
    marks, marks,
    st.tuples(st.just("remark"), st.integers(0, 200)),    # same object again
    st.tuples(st.just("split"),
              st.lists(st.integers(0, 1), min_size=3, max_size=3)),
    st.tuples(st.just("groups"),
              st.lists(st.sampled_from(SITES), max_size=6, unique=True)),
    st.tuples(st.sampled_from(["isolate", "rejoin"]),
              st.sampled_from(SITES)),
    st.tuples(st.sampled_from(["heal", "clear", "round", "round"]), st.none()),
    st.tuples(st.just("flip"), st.sampled_from(FLIPPABLE)),
), min_size=1, max_size=60)


def region_of(site):
    return site.split("-")[1]


class Deployment:
    """The real service over a real config and partition manager; the
    network only records what was sent and what backlog was sampled."""

    def __init__(self, cap):
        self.config = build_cluster_config(REGIONS, 2)
        self.partitions = PartitionManager()
        self.sent = []
        self.backlog = []
        network = SimpleNamespace(
            partitions=self.partitions, tracer=None, send=self._send,
            metrics=SimpleNamespace(
                histogram=self._histogram,
                collect_counter=lambda name, read, **labels: None))
        self.service = AntiEntropyService(
            SimpleNamespace(now=0.0),
            SimpleNamespace(name=SELF, alive=True, network=network,
                            mav=SimpleNamespace(owed={}),
                            send_owed_acks=lambda: None),
            self.config,
            AntiEntropyConfig(batch_size=BATCH, max_versions_per_round=cap))

    def _send(self, src, dst, kind, payload, size_bytes, trace):
        self.sent.append((dst, [id(v) for v in payload["versions"]]))

    def _histogram(self, name, **labels):
        assert name == "ae_backlog_versions"
        return SimpleNamespace(
            observe=lambda at_ms, value: self.backlog.append(value))

    def apply(self, kind, arg):
        """A fault or membership step (shared by service and reference)."""
        partitions, config = self.partitions, self.config
        if kind == "split":
            labels = dict(zip(REGIONS, arg))
            partitions.partition_by(lambda site: labels[region_of(site)])
        elif kind == "groups":
            partitions.partition([arg, [s for s in SITES if s not in arg]])
        elif kind == "isolate":
            partitions.isolate(arg)
        elif kind == "rejoin":
            partitions.rejoin(arg)
        elif kind == "heal":
            partitions.heal()
        elif kind == "clear":
            partitions.clear_partition()
        elif kind == "flip":
            if arg in config.all_servers:
                config.remove_server(arg)
            else:
                cluster = next(name for name in config.cluster_names
                               if region_of(arg) in name)
                config.add_server(cluster, arg)


def coalesce(entries):
    """The parent's ``_coalesce``: newest sibling-free version per key."""
    newest = {}
    for version, _delivered in entries:
        if version.siblings:
            continue
        current = newest.get(version.key)
        if current is None or version.timestamp > current.timestamp:
            newest[version.key] = version
    kept = [entry for entry in entries
            if entry[0].siblings or newest[entry[0].key] is entry[0]]
    return kept, len(entries) - len(kept)


class Reference:
    """Rescan everything, every round."""

    def __init__(self, deployment, cap):
        self.config = deployment.config
        self.partitions = deployment.partitions
        self.cap = cap
        self.dirty = []       # cap=None: every undelivered entry lives here
        self.stranded = []    # cap set: examined, unreachable under `stamp`
        self.stamp = None
        self.sent = []
        self.backlog = []
        self.rounds = 0
        self.coalesced = 0

    def mark(self, version, delivered):
        self.dirty.append((version, tuple(delivered) if delivered else None))

    def pending(self):
        return self.stranded + self.dirty

    def _examine(self, entries, batches):
        """The parent's examination loop; returns the deferred entries."""
        deferred_entries = []
        for version, delivered in entries:
            deferred = False
            for peer in self.config.peer_replicas(version.key, SELF):
                if delivered is not None and peer in delivered:
                    continue
                if not self.partitions.connected(SELF, peer):
                    deferred = True
                    continue
                batches.setdefault(peer, []).append(version)
                delivered = (*(delivered or ()), peer)
            if deferred:
                deferred_entries.append((version, delivered))
        return deferred_entries

    def round(self):
        self.backlog.append(float(len(self.pending())))
        if not self.pending():
            return
        self.rounds += 1
        batches = {}
        if self.cap is None:
            kept, dropped = coalesce(self.dirty)
            self.dirty = self._examine(kept, batches)
        else:
            stamp = (self.config.epoch, self.partitions.generation)
            if stamp != self.stamp:
                self.stamp = stamp
                self.dirty = self.stranded + self.dirty
                self.stranded = []
            kept, dropped = coalesce(self.stranded + self.dirty)
            was_stranded = {id(entry) for entry in self.stranded}
            self.stranded = [e for e in kept if id(e) in was_stranded]
            fresh = [e for e in kept if id(e) not in was_stranded]
            # The parked-set invariant, checked by rescanning.
            assert self._examine(self.stranded, batches) == self.stranded
            assert not batches
            self.dirty = fresh[self.cap:]
            self.stranded += self._examine(fresh[:self.cap], batches)
        self.coalesced += dropped
        for peer, versions in batches.items():
            for start in range(0, len(versions), BATCH):
                self.sent.append(
                    (peer, [id(v) for v in versions[start:start + BATCH]]))


def run(steps, cap):
    deployment = Deployment(cap)
    service, reference = deployment.service, Reference(deployment, cap)
    marks = []

    def mark(version, delivered):
        marks.append(version)
        service.mark_dirty(version, delivered=delivered)
        reference.mark(version, delivered)

    for step in steps:
        kind = step[0]
        if kind == "mark":
            _, key, sequence, mav, delivered = step
            siblings = frozenset((key, "z")) if mav else frozenset()
            mark(Version(key=key, value=len(marks), siblings=siblings,
                         timestamp=Timestamp(sequence=sequence, client_id=1)),
                 delivered)
        elif kind == "remark":
            if marks:
                mark(marks[step[1] % len(marks)], None)
        elif kind == "round":
            service._push_dirty()
            reference.round()
            assert deployment.sent == reference.sent
        else:
            deployment.apply(kind, step[1])
    stats = service.stats
    assert deployment.sent == reference.sent
    assert deployment.backlog == reference.backlog
    assert stats.rounds == reference.rounds
    assert stats.versions_coalesced == reference.coalesced
    assert stats.entries_examined <= len(marks) + stats.requeues
    assert ([(id(v), d) for v, d in service.take_pending()]
            == [(id(v), d) for v, d in reference.pending()])
    assert service.take_pending() == []


def _mark(key, sequence):
    return ("mark", key, sequence, False, [])


OR_S0 = "cluster1-OR-s0"   # with SG-s0, the peers owed key "a"
#: Stranded by a partition, deliverable only once the heal moves the stamp.
HEAL_REQUEUES = [_mark("a", 1), ("split", [0, 1, 1]), ("round", None),
                 ("heal", None), ("round", None)]
#: Stranded behind an isolated owner; a join moves the key to a reachable one
#: (only the epoch half of the stamp sees that).
JOIN_RETARGETS = [_mark("a", 1), ("isolate", OR_S0), ("round", None),
                  ("flip", "cluster1-OR-s2"), ("round", None)]
#: A newer fresh version evicts the parked one; an older one is dropped.
FRESH_MEETS_PARKED = [_mark("a", 2), ("isolate", OR_S0), ("round", None),
                      _mark("a", 3), _mark("a", 1), ("round", None),
                      ("heal", None), ("round", None)]


@settings(max_examples=400, deadline=None)
@given(steps=steps)
@example(steps=HEAL_REQUEUES)
@example(steps=JOIN_RETARGETS)
@example(steps=FRESH_MEETS_PARKED)
def test_uncapped_rounds_send_exactly_what_a_full_rescan_sends(steps):
    run(steps, cap=None)


@settings(max_examples=300, deadline=None)
@given(steps=steps, cap=st.integers(1, 4))
@example(steps=HEAL_REQUEUES, cap=2)
@example(steps=JOIN_RETARGETS, cap=2)
@example(steps=FRESH_MEETS_PARKED, cap=2)
def test_capped_rounds_drain_oldest_first_past_the_stranded(steps, cap):
    run(steps, cap=cap)
