#!/usr/bin/env python3
"""Session guarantees and stickiness (the paper's Section 4.1 and 5.1.3).

A user logs in and updates their profile.  With a *sticky* session (the
client keeps talking to the replica set that saw its writes, caching them
client-side), read-your-writes holds even when the home datacenter becomes
unreachable.  With a non-sticky session forced onto a different, stale
replica, the user reads the old profile — the read-your-writes violation the
paper proves unavoidable without stickiness.

Run with::

    python examples/session_guarantees.py
"""

from repro.hat import Operation, Scenario, Transaction, build_testbed
from repro.replication.antientropy import AntiEntropyConfig


def profile_update_scenario(sticky):
    testbed = build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))
    home = testbed.config.cluster_names[0]
    client = testbed.make_client("read-committed+causal", home_cluster=home,
                                 sticky=sticky)

    # The user updates their profile in the home datacenter.
    write = testbed.env.run_until_complete(client.execute(
        Transaction([Operation.write("profile:alice", "new-avatar")])
    ))
    assert write.committed

    # The home datacenter's servers become unreachable before anti-entropy
    # has copied the update to the other region.
    home_servers = set(testbed.config.cluster(home).servers)
    testbed.network.partitions.partition_by(
        lambda site: None if site in home_servers else "rest"
    )

    read = testbed.env.run_until_complete(client.execute(
        Transaction([Operation.read("profile:alice")])
    ))
    return read.value_read("profile:alice"), client


def composite_causal_scenario():
    """The registry's composite ``causal`` client: all four session guarantees.

    A user posts a reply after reading a friend's message, then their home
    datacenter fails.  The causal stack (a) repairs the user's own stale
    reads from the session cache (MR + RYW) and (b) forwards the observed
    message and the user's earlier writes to the failover replicas before
    the reply lands (WFR + MW), so a reader in the other region never sees
    the reply without its causes.
    """
    testbed = build_testbed(Scenario(
        regions=["VA", "OR"], servers_per_cluster=2,
        anti_entropy=AntiEntropyConfig(interval_ms=60_000.0)))
    home, away = testbed.config.cluster_names
    friend = testbed.make_client("eventual", home_cluster=home)
    user = testbed.make_client("causal", home_cluster=home)
    reader = testbed.make_client("eventual", home_cluster=away)

    testbed.env.run_until_complete(friend.execute(
        Transaction([Operation.write("msg:bob", "hi alice!")])
    ))
    testbed.env.run_until_complete(user.execute(
        Transaction([Operation.read("msg:bob")])
    ))

    home_servers = set(testbed.config.cluster(home).servers)
    testbed.network.partitions.partition_by(
        lambda site: None if site in home_servers else "rest"
    )

    # The reply is written through the failover replica; the causal client
    # first forwards msg:bob (writes-follow-reads) to the same side.
    testbed.env.run_until_complete(user.execute(
        Transaction([Operation.write("msg:alice", "hi bob!")])
    ))
    observed = testbed.env.run_until_complete(reader.execute(
        Transaction([Operation.read("msg:alice"), Operation.read("msg:bob")])
    ))
    return user, observed


def main():
    print("Read-your-writes with and without stickiness")
    print("=" * 60)

    for sticky in (True, False):
        value, client = profile_update_scenario(sticky)
        label = "sticky session  " if sticky else "non-sticky      "
        print(f"{label}: read profile = {value!r:14}  "
              f"(cache hits: {client.session.cache_hits}, "
              f"unrepaired stale reads: {client.violations()})")

    print("\nThe sticky session serves the user's own write from its session")
    print("cache when the contacted replica is stale; the non-sticky session")
    print("observes the pre-update profile — read-your-writes, PRAM, and causal")
    print("consistency all require sticky availability (paper Table 3).")

    print("\nComposite causal client (registry spec 'causal')")
    print("=" * 60)
    user, observed = composite_causal_scenario()
    print(f"stack protocol  : {user.protocol_name}  "
          f"(guarantees: {[layer.token for layer in user.layers]})")
    print(f"remote reader   : reply = {observed.value_read('msg:alice')!r}, "
          f"cause = {observed.value_read('msg:bob')!r}")
    print("\nBecause the causal stack forwards happened-before versions ahead")
    print("of its own writes, the reader observes the reply together with the")
    print("message it answers — writes follow reads even across the failover.")


if __name__ == "__main__":
    main()
