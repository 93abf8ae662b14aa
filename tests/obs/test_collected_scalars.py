"""The registry's scalars are *read* from the counts components keep.

Every counter and gauge recorded outside ``repro.obs`` is a reader over a
``*Stats`` field (or a breaker's / retry budget's own counter) registered
when the component is built.  These tests hold the readers to their fields
on the seams no artifact or benchmark workload turns an observer on for:
handoff in both directions, admission-control sheds, the circuit breaker
and the retry budget.
"""

import pytest

from repro.cluster.node import ServiceCostModel
from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction
from repro.loadgen import OpenLoopConfig, PoissonArrivals, run_open_loop
from repro.obs.metrics import MetricsRegistry
from repro.overload.admission import AdmissionConfig
from repro.overload.retry import RetryPolicy
from repro.workloads.ycsb import YCSBConfig

#: Collected series -> the field of one server it reads.
SERVER_COUNTERS = {
    "ae_rounds_total": lambda s: s.anti_entropy.stats.rounds,
    "ae_versions_pushed_total": lambda s: s.anti_entropy.stats.versions_pushed,
    "server_sheds_total": lambda s: s.stats.rejected,
    "handoff_fetches_total": lambda s: s.handoff.fetches_served,
    "handoff_versions_sent_total": lambda s: s.handoff.versions_sent,
    "handoff_offers_total": lambda s: s.handoff.offers_received,
    "handoff_versions_received_total": lambda s: s.handoff.versions_received,
    "lock_waits_total": lambda s: s.locks.stats.waited,
}
POOL_COUNTERS = ("retry_budget_deposits_total", "retry_budget_withdrawals_total",
                 "retry_budget_denials_total", "breaker_opens_total",
                 "breaker_denials_total")


def server_scalars(testbed):
    """What the registry must export for the servers: non-zero fields only."""
    counters, gauges = {}, {}
    for name, server in {**testbed.servers, **testbed.retired}.items():
        labels = (("node", name),)
        for series, field in SERVER_COUNTERS.items():
            if field(server):
                counters[(series, labels)] = float(field(server))
        if server.stats.max_queue_depth:
            gauges[("server_queue_depth_max", labels)] = float(
                server.stats.max_queue_depth)
    return counters, gauges


def collected(snapshot):
    return {key: value for key, value in snapshot.items()
            if key[0] in SERVER_COUNTERS or key[0] in POOL_COUNTERS}


def churned_ring_deployment(seed):
    """Writes through a scale-out, a partition and a scale-in, metrics on."""
    testbed = build_testbed(Scenario(
        regions=["VA", "OR"], servers_per_cluster=2, placement="ring",
        fixed_latency_ms=1.0, seed=seed, metrics=True))
    home = testbed.config.cluster_names[0]
    client = testbed.make_client("eventual", home_cluster=home)

    def write(count, tag):
        for index in range(count):
            assert testbed.env.run_until_complete(client.execute(Transaction(
                [Operation.write(f"key{index}", f"{tag}{seed}")]))).committed

    write(60 + 10 * seed, "preload")
    join = testbed.membership.scale_out(home)
    testbed.run(400.0)
    testbed.partition_regions([["VA"], ["OR"]])
    write(30, "partitioned")
    testbed.network.partitions.heal()
    testbed.run(200.0)
    leave = testbed.membership.scale_in(home)
    testbed.run(800.0)
    assert join.done and leave.done and leave.versions_moved
    return testbed


class TestCollectedFromStats:
    @pytest.fixture(scope="class")
    def testbed(self):
        return churned_ring_deployment(seed=0)

    def test_every_collected_series_equals_its_stats_field(self, testbed):
        counters, gauges = server_scalars(testbed)
        assert collected(testbed.metrics.counters) == counters
        assert testbed.metrics.gauges == gauges
        # Both directions of handoff moved versions, on different servers.
        names = {name for name, _ in counters}
        assert {"handoff_fetches_total", "handoff_versions_sent_total",
                "handoff_offers_total", "handoff_versions_received_total",
                "ae_rounds_total", "ae_versions_pushed_total"} <= names
        retired, = testbed.retired
        assert testbed.metrics.counter_value(
            "ae_rounds_total", node=retired) == float(
                testbed.retired[retired].anti_entropy.stats.rounds)
        assert testbed.metrics.counter_total("handoff_offers_total") == sum(
            s.handoff.offers_received for s in testbed.servers.values())

    def test_nothing_zero_valued_is_exported(self, testbed):
        metrics = testbed.metrics
        assert all(metrics.counters.values()) and all(metrics.gauges.values())
        # No admission control and no lock protocol ran: readers are
        # registered for both series, and neither is in any export.
        assert "sheds" not in metrics.prometheus()
        assert "lock_waits" not in metrics.prometheus()
        assert metrics.counter_total("server_sheds_total") == 0.0

    def test_collected_and_recorded_series_coexist_in_the_exposition(
            self, testbed):
        text = testbed.metrics.prometheus()
        commits = int(testbed.metrics.counter_value("staleness_commits_total"))
        assert commits > 0
        # Recorded through a handle by the recency probe ...
        assert f"repro_staleness_commits_total {commits}\n" in text
        # ... and read from AntiEntropyStats at exposition time.
        server = testbed.server_list()[0]
        assert (f'repro_ae_rounds_total{{node="{server.name}"}} '
                f"{server.anti_entropy.stats.rounds}\n") in text
        assert "# TYPE repro_server_queue_depth_max gauge\n" in text

    def test_a_reader_is_consulted_at_export_not_at_registration(self):
        registry = MetricsRegistry()
        box = {"count": 0, "peak": 0}
        registry.collect_counter("ops_total", lambda: box["count"], node="a")
        registry.collect_gauge("depth_max", lambda: box["peak"], node="a")
        assert registry.counters == {} and registry.gauges == {}
        assert registry.prometheus() == ""
        box.update(count=3, peak=7)
        assert registry.counter_value("ops_total", node="a") == 3.0
        assert registry.gauges == {("depth_max", (("node", "a"),)): 7.0}
        # Readers of one series add up (two pools of one region), gauges
        # keep the maximum; a counter both recorded and collected adds the
        # two.
        registry.collect_counter("ops_total", lambda: 10, node="a")
        registry.counter("ops_total", node="a").inc(100.0)
        registry.collect_gauge("depth_max", lambda: 5.0, node="a")
        assert registry.counter_value("ops_total", node="a") == 113.0
        assert registry.gauges == {("depth_max", (("node", "a"),)): 7.0}


def overload_leg(observed):
    """Open loop past a one-worker server's capacity, every defense on."""
    scenario = Scenario(
        regions=["VA", "OR"], servers_per_cluster=1,
        service_cost=ServiceCostModel(request_overhead_ms=2.5, concurrency=1),
        admission=AdmissionConfig(max_queue_depth=4, policy="adaptive-lifo"),
        tracing=observed, metrics=observed)
    testbed = build_testbed(scenario)
    stats = run_open_loop(OpenLoopConfig(
        protocol="eventual", scenario=scenario,
        arrivals=PoissonArrivals(400.0),
        workload=YCSBConfig(key_count=200, operations_per_transaction=2,
                            write_proportion=0.5),
        users=1_000, sessions_per_cluster=16, duration_ms=600.0, seed=3,
        retry=RetryPolicy(rpc_timeout_ms=250.0, max_attempts=4,
                          backoff_base_ms=5.0, backoff_cap_ms=40.0,
                          retry_budget_ratio=0.1, breaker_failure_threshold=4,
                          breaker_cooldown_ms=50.0)), testbed=testbed)
    return testbed, stats


class TestObservedDefendedOverloadLeg:
    @pytest.fixture(scope="class")
    def legs(self):
        return overload_leg(observed=True), overload_leg(observed=False)

    def test_observers_change_no_event_and_no_commit(self, legs):
        (observed, seen), (plain, unseen) = legs
        assert observed.env.events_executed == plain.env.events_executed
        assert observed.env.now == plain.env.now
        for field in ("offered", "committed", "aborted", "retries",
                      "retry_denials", "breaker_opens", "breaker_denials",
                      "server_rejected", "backlog_final"):
            assert getattr(seen, field) == getattr(unseen, field), field
        assert seen.latency.as_dict() == unseen.latency.as_dict()
        assert (observed.network.stats.sent, observed.network.stats.delivered) \
            == (plain.network.stats.sent, plain.network.stats.delivered)

    def test_defense_series_equal_the_counts_the_defenses_keep(self, legs):
        (testbed, stats), _ = legs
        metrics = testbed.metrics
        assert stats.server_rejected and stats.breaker_opens
        assert stats.retry_denials and stats.retries
        for server in testbed.server_list():
            assert server.stats.rejected > 0
            assert metrics.counter_value(
                "server_sheds_total", node=server.name) == server.stats.rejected
        assert metrics.counter_total("server_sheds_total") \
            == stats.server_rejected
        assert metrics.counter_total("breaker_opens_total") \
            == stats.breaker_opens
        assert metrics.counter_total("breaker_denials_total") \
            == stats.breaker_denials
        assert metrics.counter_total("retry_budget_denials_total") \
            == stats.retry_denials
        # A budget withdrawal is a retry the session then issued.
        assert metrics.counter_total("retry_budget_withdrawals_total") \
            == stats.retries
        # One deposit per request a session picked up.
        deposits = metrics.counter_total("retry_budget_deposits_total")
        assert stats.completed <= deposits <= stats.offered
        # Per pool: one label set per region, nothing else.
        assert {items for (name, items) in collected(metrics.counters)
                if name in POOL_COUNTERS} == {(("group", "VA"),),
                                              (("group", "OR"),)}

    def test_the_overload_seams_leave_their_trace(self, legs):
        (testbed, stats), _ = legs
        spans = testbed.tracer.spans
        rejects = [s for s in spans if s.name == "queue-reject"]
        assert len(rejects) == stats.server_rejected
        assert {s.attrs["reason"] for s in rejects} <= {"queue-full", "evicted"}
        assert all(s.attrs["kind"] in ("ru.put", "ru.get") for s in rejects)
        assert all(s.attrs["queue_depth"] >= 3 for s in rejects)
        denials = [s for s in spans if s.name == "breaker-open"]
        assert len(denials) == stats.breaker_denials
        assert {s.attrs["protocol"] for s in denials} == {"eventual"}
        # Each shed request's RPC span ends when the rejection arrives.
        overloaded = [s for s in spans if s.status == "overloaded"]
        assert len(overloaded) == stats.server_rejected
        assert all(s.kind == "rpc" and s.end_ms > s.start_ms
                   for s in overloaded)
