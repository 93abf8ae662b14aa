"""One anti-entropy clock, armed only while a server has work.

Every service started in the same ``(interval, phase)`` shares one tick per
grid instant, walked in start order; the tick exists only while some service
has dirty or parked entries.  Pinned here: an idle deployment executes no
event at all, the shared tick pushes exactly what the per-server
free-running timers it replaced pushed (kept below as the reference), and
the grid arithmetic at its edges — a mark exactly on an instant, a service
started off-grid, a service that left.
"""

from types import SimpleNamespace

from repro.bench.runner import RunConfig, run_workload
from repro.chaos import Nemesis, canonical_partition_campaign
from repro.hat.testbed import (FIVE_REGION_DEPLOYMENT, Scenario, Testbed,
                               build_testbed)
from repro.replication.antientropy import AntiEntropyConfig
from repro.storage.records import Timestamp, Version


def _version(key: str, sequence: int) -> Version:
    return Version(key=key, value=sequence,
                   timestamp=Timestamp(sequence=sequence, client_id=1))


def _record_pushes(testbed: Testbed) -> list:
    """Log every ``ae.push`` handed to the network: (time, src, dst, versions).

    A version is logged as (key, write sequence): client ids come from a
    process-wide counter, so they differ between two runs in one process.
    """
    log = []
    send = testbed.network.send

    def spy(src, dst, kind, payload=None, *args, **kwargs):
        if kind == "ae.push":
            log.append((testbed.env.now, src, dst,
                        [(v.key, v.timestamp.sequence)
                         for v in payload["versions"]]))
        return send(src, dst, kind, payload, *args, **kwargs)

    testbed.network.send = spy
    return log


def _small_testbed() -> Testbed:
    return build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2,
                                  anti_entropy=AntiEntropyConfig(interval_ms=5.0)))


class FreeRunningTimer:
    """The per-server timer the shared clock replaced: it re-schedules itself
    every interval for as long as the server lives, work or no work."""

    def __init__(self, service):
        self.service = service
        service.stop()
        service.env.schedule(service.settings.interval_ms, self._tick)

    def _tick(self):
        service = self.service
        if not service.server.alive:
            return
        service._push_dirty()
        service.env.schedule(service.settings.interval_ms, self._tick)


def _campaign_run(free_running: bool):
    scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2, seed=3)
    testbed = build_testbed(scenario)
    if free_running:
        for server in testbed.server_list():
            FreeRunningTimer(server.anti_entropy)
    pushes = _record_pushes(testbed)
    campaign = canonical_partition_campaign(
        scenario.regions, baseline_ms=200.0, partition_ms=600.0,
        recovery_ms=300.0)
    Nemesis(testbed, campaign).install()
    stats = run_workload(
        RunConfig(protocol="eventual", scenario=scenario,
                  duration_ms=campaign.duration_ms, warmup_ms=0.0, seed=3),
        testbed=testbed)
    return testbed, stats, pushes


class TestIdleIsFree:
    def test_an_idle_deployment_executes_no_event(self):
        testbed = build_testbed(Scenario(regions=FIVE_REGION_DEPLOYMENT,
                                         servers_per_cluster=2))
        testbed.run(10_000.0)
        assert testbed.env.events_executed == 0
        assert testbed.env.pending_events == 0

    def test_the_clock_disarms_once_the_queues_drain(self):
        testbed = _small_testbed()
        server = testbed.server_list()[0]
        server.anti_entropy.mark_dirty(_version("user1", 1))
        assert testbed.env.pending_events == 1  # the tick, nothing else
        testbed.run(1_000.0)
        assert server.anti_entropy.stats.rounds == 1
        assert testbed.env.pending_events == 0


class TestSameScheduleAsFreeRunningTimers:
    def test_a_partition_campaign_pushes_the_same_sequence(self):
        shared, shared_stats, shared_pushes = _campaign_run(free_running=False)
        free, free_stats, free_pushes = _campaign_run(free_running=True)
        assert len(shared_pushes) > 200
        assert shared_pushes == free_pushes
        assert shared_stats.committed == free_stats.committed
        assert shared_stats.latency.mean == free_stats.latency.mean
        for ours, theirs in zip(shared.server_list(), free.server_list()):
            assert ours.anti_entropy.stats == theirs.anti_entropy.stats
        # What the shared clock saves: the ticks that found nothing to do.
        assert shared.env.events_executed < free.env.events_executed


class TestGridEdges:
    def test_a_mark_on_a_grid_instant_is_pushed_at_that_instant(self):
        testbed = _small_testbed()
        service = testbed.server_list()[0].anti_entropy
        pushes = _record_pushes(testbed)
        testbed.env.schedule(10.0, service.mark_dirty, _version("user1", 1))
        testbed.run(100.0)
        assert {when for when, *_ in pushes} == {10.0}

    def test_a_mark_after_that_instants_tick_waits_one_interval(self):
        testbed = _small_testbed()
        service = testbed.server_list()[0].anti_entropy
        pushes = _record_pushes(testbed)

        def mark_twice():
            service.mark_dirty(_version("user1", 1))  # arms the tick for now
            testbed.env.schedule_now(service.mark_dirty, _version("user2", 2))

        testbed.env.schedule(10.0, mark_twice)
        testbed.run(100.0)
        assert {when for when, *_, versions in pushes
                if ("user1", 1) in versions} == {10.0}
        assert {when for when, *_, versions in pushes
                if ("user2", 2) in versions} == {15.0}

    def test_a_service_started_off_grid_ticks_on_its_own_phase(self):
        testbed = _small_testbed()
        first, second = (s.anti_entropy for s in testbed.server_list()[:2])
        first.stop()
        testbed.run(3.0)
        first.start()  # the way a joiner starts: whenever its handoff ends
        pushes = _record_pushes(testbed)
        for tick in range(4):
            first.mark_dirty(_version(f"a{tick}", tick + 1))
            second.mark_dirty(_version(f"b{tick}", tick + 1))
            testbed.run(5.0)
        times = {name: sorted({when for when, src, *_ in pushes if src == name})
                 for name in (first.server.name, second.server.name)}
        assert times[first.server.name] == [8.0, 13.0, 18.0, 23.0]
        assert times[second.server.name] == [5.0, 10.0, 15.0, 20.0]

    def test_stop_removes_a_leaver_from_the_walk(self):
        testbed = _small_testbed()
        leaver = testbed.server_list()[0].anti_entropy
        leaver.mark_dirty(_version("user1", 1))
        leaver.stop()
        leaver.mark_dirty(_version("user2", 2))
        testbed.run(100.0)
        assert leaver.stats.rounds == 0
        assert testbed.env.pending_events == 0
        assert [version.key for version, _ in leaver.take_pending()] \
            == ["user1", "user2"]


class TestBacklogGauge:
    def test_a_drain_records_its_zero_and_idleness_records_nothing(self):
        """``ae_backlog_versions`` is sampled by every round that runs, and
        once more with 0.0 by a round that leaves nothing queued or parked:
        a window without a sample means the service was idle."""
        testbed = build_testbed(Scenario(
            regions=["VA", "OR"], servers_per_cluster=2, metrics=True,
            anti_entropy=AntiEntropyConfig(interval_ms=5.0)))
        server = testbed.server_list()[0]
        samples = []
        # The service resolved its ``ae_backlog_versions`` series when it was
        # built: spy on that handle.
        service = server.anti_entropy
        backlog = service._backlog

        def spy(at_ms, value):
            samples.append((at_ms, value))
            backlog.observe(at_ms, value)

        service._backlog = SimpleNamespace(observe=spy)
        testbed.partition_regions([["VA"], ["OR"]])
        server.anti_entropy.mark_dirty(_version("user1", 1))
        testbed.run(18.0)
        # Parked behind the partition: every round samples it, none closes it.
        assert samples == [(5.0, 1.0), (10.0, 1.0), (15.0, 1.0)]
        testbed.network.partitions.clear_partition()
        testbed.run(1_000.0)
        assert samples[3:] == [(20.0, 1.0), (20.0, 0.0)]
