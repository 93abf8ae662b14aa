"""Property test: MAV stabilisation under arbitrary delivery schedules.

Appendix B's condition is that a replica reveals a transaction's write only
once every replica of every sibling key has acknowledged receiving its share.
The servers reach it with batched acks, local self-acks and in-handler
promotion; none of that may depend on delivery order.  Here hypothesis owns
the network: every message a server sends is captured, and the schedule
decides which write batch or captured ``mav.notify`` is delivered next, to
whom, and whether it is delivered again later.  Whatever the schedule:

* a write is never in ``good`` before every replica of every sibling key
  holds its write (so no ack can have been skipped),
* a read carrying the ``required`` bound a stable sibling would have taught
  the client is never answered ``stale``,
* once everything has been delivered at least once, every server has
  promoted each write it owns exactly once and tracks nothing.
"""

from hypothesis import given, settings, strategies as st

from repro.hat.testbed import Scenario, build_testbed
from repro.net.network import Message
from repro.storage.records import Timestamp, Version

KEY_POOL = ["k0", "k1", "k2", "k3", "k4", "k5"]
TS = Timestamp(7, 1)


class Harness:
    """Four servers whose outgoing messages land in a pool, not the wire."""

    def __init__(self, keys):
        self.testbed = build_testbed(Scenario(
            regions=["VA", "OR"], servers_per_cluster=2, fixed_latency_ms=1.0))
        self.pool = []
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

    def _capture(self, src, dst, kind, payload=None, *_args, **_kwargs):
        assert kind == "mav.notify", kind
        assert src != dst, "self-acks are applied in place, never sent"
        self.pool.append((dst, payload))

    def deliver(self, dst, kind, payload):
        server = self.testbed.servers[dst]
        _reply, cost = server._handlers[kind](Message("test", dst, kind, payload))
        assert cost >= 0.0
        self.check()

    def holds(self, name, key) -> bool:
        """The server has the write, pending or good."""
        server = self.testbed.servers[name]
        return (server.mav.read_pending(key, TS) is not None
                or server.store.data.exact(key, TS) is not None)

    def check(self):
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


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_any_schedule_promotes_each_write_exactly_once(data):
    keys = data.draw(st.lists(st.sampled_from(KEY_POOL), min_size=1,
                              max_size=4, unique=True), label="keys")
    rig = Harness(keys)
    for _ in range(data.draw(st.integers(0, 25), label="steps")):
        if rig.pool and data.draw(st.booleans(), label="deliver a notify"):
            index = data.draw(st.integers(0, len(rig.pool) - 1))
            dst, payload = rig.pool[index]
            if not data.draw(st.booleans(), label="and again later"):
                del rig.pool[index]
            rig.deliver(dst, "mav.notify", payload)
        else:
            dst = data.draw(st.sampled_from(rig.owners))
            batch = data.draw(st.lists(st.sampled_from(rig.owned[dst]),
                                       min_size=1, max_size=4), label="batch")
            if len(batch) == 1 and data.draw(st.booleans(), label="as a put"):
                rig.deliver(dst, "mav.put", {"version": rig.versions[batch[0]]})
            else:
                rig.deliver(dst, "ae.push",
                            {"versions": [rig.versions[k] for k in batch]})
    # Drain: everything is delivered at least once more, in schedule order.
    for dst in rig.owners:
        rig.deliver(dst, "ae.push",
                    {"versions": [rig.versions[k] for k in rig.owned[dst]]})
    while rig.pool:
        dst, payload = rig.pool.pop(
            data.draw(st.integers(0, len(rig.pool) - 1)))
        rig.deliver(dst, "mav.notify", payload)
    for name, server in rig.testbed.servers.items():
        assert server.mav.stats.promoted == len(rig.owned[name])
        assert server.store.stats.puts == len(rig.owned[name])
        assert server.mav.pending_count() == 0
        assert server.mav.tracked_transactions() == 0
        for key in rig.owned[name]:
            assert server.store.data.exact(key, TS) is rig.versions[key]
