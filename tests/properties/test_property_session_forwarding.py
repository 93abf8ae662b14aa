"""Property test: the owed-key index forwards exactly what a full scan would.

``SessionLayer._forward`` examines only the keys its :class:`OwedIndex` says
can be owed, and ``SessionLayer.begin`` does not enter it at all while
routing has not moved and nothing is owed.  The reference here ignores the
index and scans every remembered version — the loop the index replaced — at
the moment each ``_forward`` starts, and at every writing transaction's
``begin`` that enters no ``_forward``; whatever faults, membership changes
and foreign writes happened in between, both must name the same
``(key, timestamp, replica)`` forwards in the same order (none, for a
``begin`` that returned early).
"""

from hypothesis import example, given, settings, strategies as st

from repro.errors import UnavailableError
from repro.hat.layers import SessionLayer
from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction
from repro.replication.antientropy import AntiEntropyConfig

KEYS = [f"k{i}" for i in range(4)]

operations = st.lists(
    st.tuples(st.sampled_from(["read", "write"]), st.sampled_from(KEYS)),
    min_size=1, max_size=4)
steps = st.lists(st.one_of(
    st.tuples(st.just("session"), operations),
    st.tuples(st.just("author"), operations),
    st.tuples(st.sampled_from(["isolate", "rejoin"]), st.integers(0, 3)),
    st.tuples(st.sampled_from(["partition", "heal", "join", "leave", "settle"]),
              st.none()),
), min_size=1, max_size=30)


def full_scan(layer, ctx, versions):
    """What forwarding owes, found by examining every remembered version."""
    client = layer.client
    overwritten = {op.key for op in ctx.plan if op.kind == "write"}
    owed = []
    for key, version in versions.items():
        if version.txn_id is None or key in overwritten:
            continue
        try:
            replica = client._pick_replica(key)
        except UnavailableError:
            continue
        if replica not in layer.state.holders_of(key, version.timestamp):
            owed.append((key, version.timestamp, replica))
    return owed


def execute(testbed, client, ops):
    transaction = Transaction([
        Operation.read(key) if kind == "read"
        else Operation.write(key, testbed.env.now) for kind, key in ops])
    return testbed.env.run_until_complete(client.execute(transaction))


@settings(max_examples=300, deadline=None)
@given(steps=steps, converging=st.booleans())
# A foreign write replaces the holder entry of a key already found held.
@example(steps=[("session", [("write", "k1")]),
                ("author", [("write", "k1")]),
                ("session", [("read", "k1"), ("write", "k0")]),
                ("session", [("write", "k0")])], converging=False)
# Routing moves (failover, then back) with nothing newly remembered.
@example(steps=[("session", [("write", "k0"), ("write", "k1")]),
                ("session", [("write", "k2")]),
                ("partition", None),
                ("session", [("write", "k2")]),
                ("heal", None),
                ("session", [("write", "k3")])], converging=False)
def test_owed_index_forwards_what_a_full_scan_would(steps, converging):
    testbed = build_testbed(Scenario(
        regions=["VA", "OR"], servers_per_cluster=2,
        anti_entropy=AntiEntropyConfig(
            interval_ms=10.0 if converging else 600_000.0)))
    home = testbed.config.cluster_names[0]
    begin = SessionLayer.begin
    checked = []

    def checked_begin(layer, ctx):
        writes = any(op.kind == "write" for op in ctx.plan)
        expected = [full_scan(layer, ctx, versions)
                    for _, versions, _ in layer._forwards]
        entered = len(checked)
        yield from begin(layer, ctx)
        if writes and len(checked) == entered:
            assert expected == [[] for _ in layer._forwards]

    # The client binds its hooks when it is built.
    SessionLayer.begin = checked_begin
    try:
        session = testbed.make_client("causal", home_cluster=home)
    finally:
        SessionLayer.begin = begin
    # Homed with the session, so its writes are what the session reads next.
    author = testbed.make_client("eventual", home_cluster=home)
    servers = list(testbed.config.all_servers)
    joined = []

    issued = []
    issue = session._issue

    def spy(result, dst, kind, payload, size_bytes=0):
        if kind == session.put_kind:
            version = payload["version"]
            issued.append((version.key, version.timestamp, dst))
        return issue(result, dst, kind, payload, size_bytes)

    session._issue = spy
    forward = SessionLayer._forward

    def checked_forward(layer, ctx, versions, index, overwritten):
        expected = full_scan(layer, ctx, versions)
        start = len(issued)
        yield from forward(layer, ctx, versions, index, overwritten)
        assert issued[start:] == expected
        checked.append(len(expected))

    SessionLayer._forward = checked_forward
    try:
        for step, argument in steps:
            if step == "session":
                execute(testbed, session, argument)
            elif step == "author":
                execute(testbed, author, argument)
            elif step == "isolate":
                testbed.network.partitions.isolate(servers[argument])
            elif step == "rejoin":
                testbed.network.partitions.rejoin(servers[argument])
            elif step == "partition":
                testbed.partition_regions([["VA"], ["OR"]])
            elif step == "heal":
                testbed.network.partitions.clear_partition()
                for server in servers:
                    testbed.network.partitions.rejoin(server)
            elif step == "join" and len(joined) < 2:
                joined.append(testbed.add_server(home).name)
                testbed.config.add_server(home, joined[-1])
            elif step == "leave" and joined:
                testbed.config.remove_server(joined.pop())
            elif step == "settle":
                testbed.run(100.0)
    finally:
        SessionLayer._forward = forward
    state = session.session
    assert state.forwards_issued == sum(checked)
    assert state.forward_probes >= state.forwards_issued
