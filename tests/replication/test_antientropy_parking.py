"""Anti-entropy parks what a partition strands instead of re-examining it.

An entry a round examined and could not finish is owed only to peers that
are unreachable under the current routing stamp, so nothing about it can
change until the stamp moves.  These tests pin the two consequences: the
backlog's cost no longer grows with the length of the partition, and — the
one behaviour change — stranded entries no longer eat the per-round cap.
"""

from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction
from repro.replication.antientropy import AntiEntropyConfig
from repro.storage.records import Timestamp, Version


def _version(key: str, sequence: int) -> Version:
    return Version(key=key, value=sequence,
                   timestamp=Timestamp(sequence=sequence, client_id=1))


def _through_a_partition(partition_ms: float):
    """Sixty VA writes over the first 600 ms of a VA|OR partition that lasts
    ``partition_ms``, then a heal and time to drain; returns VA's services."""
    testbed = build_testbed(Scenario(regions=["VA", "OR"],
                                     servers_per_cluster=2))
    client = testbed.make_client(
        "eventual", home_cluster=testbed.config.cluster_names[0])
    testbed.partition_regions([["VA"], ["OR"]])
    for index in range(60):
        # Forty keys: the later writes supersede parked versions.
        result = testbed.env.run_until_complete(client.execute(
            Transaction([Operation.write(f"user{index % 40}", index)])))
        assert result.committed
        testbed.run(10.0)
    testbed.run(partition_ms - testbed.env.now)
    testbed.network.partitions.clear_partition()
    testbed.run(1500.0)
    return [server.anti_entropy for server in testbed.server_list()
            if server.name.startswith(testbed.config.cluster_names[0])]


class TestBacklogCost:
    def test_examinations_do_not_grow_with_partition_length(self):
        short = _through_a_partition(1_000.0)
        long = _through_a_partition(4_000.0)
        for brief, lengthy in zip(short, long):
            # 300 more rounds looked at the parked entries zero more times.
            assert lengthy.stats.rounds >= brief.stats.rounds + 290
            assert (lengthy.stats.entries_examined
                    == brief.stats.entries_examined)
            assert lengthy.stats.versions_pushed == brief.stats.versions_pushed
            assert lengthy.take_pending() == []

    def test_each_entry_is_examined_once_per_mark_and_once_per_requeue(self):
        services = _through_a_partition(1_000.0)
        examined = sum(s.stats.entries_examined for s in services)
        requeues = sum(s.stats.requeues for s in services)
        pushed = sum(s.stats.versions_pushed for s in services)
        # One mark per write; the heal put every surviving version back once.
        assert requeues == pushed == 40
        assert 0 < examined <= 60 + requeues


class TestCapSkipsTheStranded:
    def test_fresh_write_reaches_the_reachable_peer_on_the_next_round(self):
        """Three regions, one cut off, cap 4, forty stranded entries: the
        window used to be filled by entries that cannot be sent, so a fresh
        write waited ``backlog / cap`` rounds for a peer it could reach."""
        testbed = build_testbed(Scenario(
            regions=["VA", "OR", "CA"], servers_per_cluster=1,
            anti_entropy=AntiEntropyConfig(max_versions_per_round=4)))
        testbed.partition_regions([["VA", "OR"], ["CA"]])
        origin, reachable, _cut_off = testbed.server_list()
        service = origin.anti_entropy
        for index in range(40):
            service.mark_dirty(_version(f"user{index}", index + 1))
        for _ in range(10):
            service._push_dirty()
        # Every version went to OR and is still owed to CA.
        assert service.stats.versions_pushed == 40
        fresh = _version("fresh", 100)
        service.mark_dirty(fresh)
        service._push_dirty()
        assert service.stats.versions_pushed == 41
        testbed.run(200.0)
        assert reachable.store.data.latest("fresh") == fresh

    def test_heal_drains_the_backlog_oldest_first(self):
        """The stranded entries used to rotate through the cap window, so
        the first post-heal round started wherever the rotation stood."""
        testbed = build_testbed(Scenario(
            regions=["VA", "OR"], servers_per_cluster=1,
            anti_entropy=AntiEntropyConfig(max_versions_per_round=4)))
        testbed.partition_regions([["VA"], ["OR"]])
        origin, remote = testbed.server_list()
        service = origin.anti_entropy
        service.stop()  # rounds are driven by hand
        for index in range(10):
            service.mark_dirty(_version(f"user{index}", index + 1))
        for _ in range(3):
            service._push_dirty()
        assert service.stats.versions_pushed == 0
        testbed.network.partitions.clear_partition()
        service._push_dirty()
        testbed.run(200.0)
        latest = remote.store.data.latest
        received = [index for index in range(10)
                    if latest(f"user{index}").value == index + 1]
        assert received == [0, 1, 2, 3]
        assert len(service.take_pending()) == 6
