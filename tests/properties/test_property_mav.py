"""Property tests: MAV stabilisation under arbitrary schedules.

Appendix B's condition is that a replica reveals a transaction's write only
once every replica of every sibling key has acknowledged receiving its share.
The servers reach it with local self-acks, acks owed per destination until
the anti-entropy tick sends them (riding the round's ``ae.push`` to their
destination, else in a ``mav.notify``), and in-handler promotion; none of
that may depend on when a tick fires or in what order batches arrive.  Here
hypothesis owns the network and the clock: every message a server sends is
captured, and the schedule decides which write batch or captured message is
delivered next, to whom, whether it is delivered again later, which server's
tick fires when and whether it pushes — and, in the second property, when
partitions start and heal.  Whatever the schedule:

* a write is never in ``good`` before every replica of every sibling key
  holds its write (so no ack can have been skipped),
* a read carrying the ``required`` bound a stable sibling would have taught
  the client is never answered ``stale``,
* an ack is never handed to the network for a server its sender cannot
  reach, and every ack a server ever earned is either still owed or was sent
  exactly once,
* once every tick has fired on a healed network and everything has been
  delivered at least once, every server has promoted each write it owns
  exactly once, tracks nothing and owes nothing.
"""

from hypothesis import given, settings, strategies as st

from repro.hat.clients.base import VALUE_BYTES
from repro.hat.testbed import Scenario, build_testbed
from repro.net.network import Message
from repro.replication.antientropy import BYTES_PER_VERSION
from repro.storage.records import Timestamp, Version

KEY_POOL = ["k0", "k1", "k2", "k3", "k4", "k5"]
TS = Timestamp(7, 1)


class Harness:
    """Four servers whose outgoing messages land in a pool, not the wire."""

    def __init__(self, keys):
        self.testbed = build_testbed(Scenario(
            regions=["VA", "OR"], servers_per_cluster=2, fixed_latency_ms=1.0))
        self.pool = []
        #: (src, dst) -> acks handed to the network so far.
        self.sent = {}
        self.testbed.network.send = self._capture
        config = self.testbed.config
        self.versions = {
            key: Version(key, f"v-{key}", TS, txn_id=7, siblings=frozenset(keys))
            for key in keys}
        self.owned = {name: [] for name in self.testbed.servers}
        for key in keys:
            for replica in config.replicas_for(key):
                self.owned[replica].append(key)
        self.owners = sorted(name for name, owned in self.owned.items() if owned)
        #: server -> its keys whose write it has been given at least once.
        self.seen = {name: set() for name in self.owners}

    def _capture(self, src, dst, kind, payload=None, reply_to=None,
                 size_bytes=0, *_args, **_kwargs):
        assert kind in ("mav.notify", "ae.push"), kind
        assert src != dst, "self-acks are applied in place, never sent"
        assert self.testbed.network.partitions.connected(src, dst), \
            f"{src} sent acks to unreachable {dst}"
        acks = payload["acks"]
        assert acks or kind == "ae.push", "an empty batch is not sent"
        self.sent[src, dst] = self.sent.get((src, dst), 0) + len(acks)
        self.pool.append((dst, kind, payload, size_bytes))

    def tick(self, name, push):
        """One server's anti-entropy round: with its pushes (owed acks ride
        them) or, as a round with nothing to push sends, the acks alone."""
        server = self.testbed.servers[name]
        if push:
            server.anti_entropy.run_round()
        else:
            server.send_owed_acks()
        self.check()

    def deliver_writes(self, dst, keys, as_put=False):
        self.seen[dst].update(keys)
        # Each message at the size its real sender declares: a client's MAV
        # write with its sibling metadata, an anti-entropy batch per version.
        if as_put:
            (key,) = keys
            version = self.versions[key]
            self.deliver(dst, "mav.put", {"version": version},
                         VALUE_BYTES + version.metadata_bytes)
        else:
            self.deliver(dst, "ae.push",
                         {"versions": [self.versions[k] for k in keys]},
                         BYTES_PER_VERSION * len(keys))

    def deliver_captured(self, index, again=False):
        dst, kind, payload, size = (self.pool[index] if again
                                    else self.pool.pop(index))
        if kind == "ae.push":
            self.seen[dst].update(version.key for version in payload["versions"])
        self.deliver(dst, kind, payload, size)

    def deliver(self, dst, kind, payload, size_bytes):
        server = self.testbed.servers[dst]
        _reply, cost = server._handlers[kind](
            Message("test", dst, kind, payload, size_bytes=size_bytes))
        assert cost >= 0.0
        self.check()

    def holds(self, name, key) -> bool:
        """The server has the write, pending or good."""
        server = self.testbed.servers[name]
        return (server.mav.read_pending(key, TS) is not None
                or server.store.data.exact(key, TS) is not None)

    def check(self):
        # Conservation: one ack per first-seen write per other owner, each
        # still owed or sent once — never dropped, never duplicated.
        for src in self.owners:
            owed = self.testbed.servers[src].mav.owed
            assert all(owed.values()), "a sent batch leaves no empty list"
            for dst in self.owners:
                if dst != src:
                    assert (len(owed.get(dst, ())) + self.sent.get((src, dst), 0)
                            == len(self.seen[src])), (src, dst)
        servers = self.testbed.servers
        everyone_holds = all(self.holds(name, key)
                             for name, owned in self.owned.items()
                             for key in owned)
        revealed = False
        for name, owned in self.owned.items():
            for key in owned:
                if servers[name].store.data.exact(key, TS) is not None:
                    revealed = True
                    assert everyone_holds, f"{name} revealed {key} early"
        if revealed:
            # A client that read the revealed write now requires TS of every
            # sibling, at whichever replica it asks.
            for name, owned in self.owned.items():
                for key in owned:
                    reply, _ = servers[name]._handlers["mav.get"](Message(
                        "test", name, "mav.get", {"key": key, "required": TS}))
                    assert "stale" not in reply
                    assert reply["version"].timestamp >= TS


def settle(rig, data):
    """Every write everywhere, then ticks and deliveries until nothing moves;
    each server must end having promoted exactly what it owns, once."""
    for dst in rig.owners:
        rig.deliver_writes(dst, rig.owned[dst])
    while rig.pool or any(rig.testbed.servers[name].mav.owed
                          for name in rig.owners):
        for name in data.draw(st.permutations(rig.owners), label="tick order"):
            rig.tick(name, data.draw(st.booleans(), label="push"))
        while rig.pool:
            rig.deliver_captured(data.draw(st.integers(0, len(rig.pool) - 1)))
    for name, server in rig.testbed.servers.items():
        assert server.mav.stats.promoted == len(rig.owned[name])
        assert server.store.stats.puts == len(rig.owned[name])
        assert len(server.mav._pending) == 0
        assert not server.mav.owed
        for key in rig.owned[name]:
            assert server.store.data.exact(key, TS) is rig.versions[key]


def step(rig, data):
    """One schedule step on a connected or partitioned network: deliver a
    captured message (perhaps again later), fire one server's tick, or hand
    one server a batch of its writes."""
    action = data.draw(st.sampled_from(["deliver", "tick", "write"]))
    if action == "deliver" and rig.pool:
        rig.deliver_captured(data.draw(st.integers(0, len(rig.pool) - 1)),
                             again=data.draw(st.booleans(), label="again later"))
    elif action == "tick":
        rig.tick(data.draw(st.sampled_from(rig.owners)),
                 data.draw(st.booleans(), label="push"))
    else:
        dst = data.draw(st.sampled_from(rig.owners))
        batch = data.draw(st.lists(st.sampled_from(rig.owned[dst]), min_size=1,
                                   max_size=4, unique=True), label="batch")
        rig.deliver_writes(dst, batch, as_put=len(batch) == 1 and data.draw(
            st.booleans(), label="as a put"))


def draw_keys(data):
    return data.draw(st.lists(st.sampled_from(KEY_POOL), min_size=1,
                              max_size=4, unique=True), label="keys")


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_any_schedule_promotes_each_write_exactly_once(data):
    rig = Harness(draw_keys(data))
    for _ in range(data.draw(st.integers(0, 25), label="steps")):
        step(rig, data)
    settle(rig, data)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_acks_owed_to_an_unreachable_peer_are_neither_sent_nor_lost(data):
    """Partition start, heal and tick in any interleaving: ``_capture``
    refuses a batch sent across the split, ``check`` finds every ack owed or
    sent once after every step, and after the heal everything promotes."""
    rig = Harness(draw_keys(data))
    partitions = rig.testbed.network.partitions
    servers = sorted(rig.testbed.servers)
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        fault = data.draw(st.sampled_from(
            ["none", "none", "regions", "isolate", "heal"]), label="fault")
        if fault == "regions":
            rig.testbed.partition_regions([["VA"], ["OR"]])
        elif fault == "isolate":
            partitions.isolate(data.draw(st.sampled_from(servers)))
        elif fault == "heal":
            partitions.clear_partition()
            for server in servers:
                partitions.rejoin(server)
        step(rig, data)
    if not partitions.idle:
        # Whatever is cut off now holds its acks through any number of ticks.
        unreachable = {
            (src, dst): list(acks)
            for src in rig.owners
            for dst, acks in rig.testbed.servers[src].mav.owed.items()
            if not partitions.connected(src, dst)}
        for name in rig.owners:
            rig.tick(name, data.draw(st.booleans(), label="push"))
        for (src, dst), acks in unreachable.items():
            assert rig.testbed.servers[src].mav.owed[dst][:len(acks)] == acks
    partitions.clear_partition()
    for server in servers:
        partitions.rejoin(server)
    settle(rig, data)
