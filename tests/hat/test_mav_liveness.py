"""Liveness of MAV stabilisation: an acknowledgement is owed until delivered.

Acks leave only on the anti-entropy tick — riding the round's ``ae.push`` to
their destination, else in one ``mav.notify`` per destination — and a
destination that cannot be reached — or a sender that is down — keeps the
list.  Each test here fails when an ack can be dropped: sent into a
partition from the write's handler, lost with a crash, or left behind by a
departing server.
"""

from repro.adya.history import HistoryRecorder
from repro.adya.levels import check_history
from repro.bench.runner import RunConfig, run_workload
from repro.chaos import Nemesis, canonical_partition_campaign
from repro.hat.testbed import Scenario, build_testbed
from repro.replication.antientropy import AntiEntropyConfig
from repro.storage.records import Timestamp, Version


def put(testbed, server, version):
    """A raw ``mav.put`` from a probe endpoint, answered before returning."""
    probe = "probe-client"
    if probe not in testbed.topology.sites:
        testbed.topology.add_site(probe, region="VA")
        testbed.network.register(probe, lambda message: None)
    return testbed.env.run_until_complete(
        testbed.network.rpc(probe, server, "mav.put", {"version": version}))


def notifies(testbed) -> int:
    return testbed.network.stats.per_kind.get("mav.notify", 0)


def count_acks_delivered(testbed) -> dict:
    """Acks the servers take in from now on, by the message carrying them."""
    delivered = {"ae.push": 0, "mav.notify": 0}
    for server in testbed.servers.values():
        for kind in delivered:
            handler = server._handlers[kind]

            def counting(message, kind=kind, handler=handler):
                delivered[kind] += len(message.payload.get("acks") or ())
                return handler(message)

            server._handlers[kind] = counting
    return delivered


def test_every_write_made_during_a_partition_is_promoted_after_the_heal():
    scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2, seed=0)
    testbed = build_testbed(scenario)
    campaign = canonical_partition_campaign(
        scenario.regions, baseline_ms=200.0, partition_ms=1_500.0,
        recovery_ms=300.0)
    Nemesis(testbed, campaign).install()
    recorder = HistoryRecorder()
    stats = run_workload(
        RunConfig(protocol="mav", scenario=scenario,
                  duration_ms=campaign.duration_ms, warmup_ms=0.0, seed=0),
        testbed=testbed, recorder=recorder)
    assert stats.committed > 2_000
    testbed.run(5_000.0)
    servers = testbed.server_list()
    # The partition stranded versions (and the acks they earn), and nothing
    # was sent into it to be dropped.
    assert sum(s.anti_entropy.stats.requeues for s in servers) > 1_000
    assert testbed.network.stats.dropped_partition == 0
    for server in servers:
        assert len(server.mav._pending) == 0, server.name
        assert not server.mav.owed, server.name
        assert server.mav.stats.promoted == server.mav.stats.puts > 0
    # Quiesced means idle: nothing armed but (at most) one timeout sweep.
    assert testbed.env.pending_events <= 1
    # Replicas converge: every replica of a key reveals the same version.
    keys = {key for server in servers for key in server.store.data.keys()}
    for key in keys:
        revealed = {testbed.servers[replica].store.data.latest(key).timestamp
                    for replica in testbed.config.replicas_for(key)}
        assert len(revealed) == 1, key
    report = check_history(recorder.build(), "MAV")
    assert report.satisfied, str(report)


def test_a_crashed_server_sends_what_it_owes_after_it_recovers():
    testbed = build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2,
                                     fixed_latency_ms=1.0))
    key = "owed"
    origin, remote = (testbed.servers[name]
                      for name in testbed.config.replicas_for(key))
    version = Version(key, "kept", Timestamp(5, 1), txn_id=5,
                      siblings=frozenset({key}))
    delivered = count_acks_delivered(testbed)
    put(testbed, origin.name, version)
    origin.crash()  # before the tick that would have sent the ack
    testbed.run(500.0)
    assert delivered == {"ae.push": 0, "mav.notify": 0}
    assert testbed.env.pending_events <= 1
    assert [len(acks) for acks in origin.mav.owed.values()] == [1]
    assert sum(len(entry.writes) for entry in origin.mav._pending.values()) == 1
    origin.recover()
    testbed.run(100.0)
    # origin -> remote on the push of the write, then remote -> origin alone.
    assert delivered == {"ae.push": 1, "mav.notify": 1}
    for server in (origin, remote):
        assert not server.mav.owed
        assert len(server.mav._pending) == 0
        assert server.store.data.exact(key, version.timestamp) is version


def test_a_leaving_server_owes_nothing_when_it_departs():
    """The tick never fires here (one round a simulated ten minutes), so the
    only way the leaver's ack can have left is the flush at departure."""
    testbed = build_testbed(Scenario(
        regions=["VA", "OR"], servers_per_cluster=3, placement="ring",
        fixed_latency_ms=1.0,
        anti_entropy=AntiEntropyConfig(interval_ms=600_000.0)))
    cluster = testbed.config.clusters[0]
    leaver = testbed.servers[cluster.servers[-1]]
    key = next(f"key{i}" for i in range(1_000)
               if testbed.config.replicas_for(f"key{i}")[0] == leaver.name)
    remote = testbed.servers[testbed.config.replicas_for(key)[1]]
    put(testbed, leaver.name, Version(key, "parting", Timestamp(9, 1), txn_id=9,
                                      siblings=frozenset({key})))
    assert notifies(testbed) == 0
    assert [len(acks) for acks in leaver.mav.owed.values()] == [1]
    record = testbed.membership.scale_in(cluster.name, server_name=leaver.name)
    testbed.run(2_000.0)
    assert record.done and record.error is None
    assert leaver.name in testbed.retired and not leaver.alive
    assert not leaver.mav.owed
    assert leaver.mav.stats.notifies_sent == 1
    assert remote.mav.stats.notifies_received == 1
