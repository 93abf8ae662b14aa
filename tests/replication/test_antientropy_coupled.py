"""Capacity-coupled anti-entropy: catch-up competes for service capacity.

Two contracts.  First, coupling itself: with ``capacity_coupled=True`` each
push round runs as a queued request on the sending server, so its cost
(``send_cost_ms_per_version`` per version) occupies a worker — replication
is no longer free.  Second, the coupled default cap
(:data:`~repro.replication.antientropy.DEFAULT_COUPLED_MAX_PER_ROUND`):
a heal backlog larger than the cap must drain over *several* rounds rather
than arrive as one worker-wedging burst — the regression that used to turn
a healed partition into a retry storm.
"""

import pytest

from repro.hat.testbed import Scenario, Testbed, build_testbed
from repro.hat.transaction import Operation, Transaction
from repro.replication.antientropy import (
    DEFAULT_COUPLED_MAX_PER_ROUND,
    AntiEntropyConfig,
)


def coupled_testbed(max_versions_per_round=None) -> Testbed:
    return build_testbed(Scenario(
        regions=["VA", "OR"],
        servers_per_cluster=1,
        anti_entropy=AntiEntropyConfig(
            interval_ms=5.0,
            capacity_coupled=True,
            send_cost_ms_per_version=0.05,
            max_versions_per_round=max_versions_per_round,
        ),
    ))


def write_burst(testbed: Testbed, count: int, prefix: str = "key") -> None:
    client = testbed.make_client("eventual",
                                 home_cluster=testbed.config.cluster_names[0])
    for index in range(count):
        result = testbed.env.run_until_complete(client.execute(
            Transaction([Operation.write(f"{prefix}{index}", "v")])))
        assert result.committed


class TestEffectiveCap:
    def test_coupled_default_is_bounded(self):
        settings = AntiEntropyConfig(capacity_coupled=True)
        assert (settings.effective_max_per_round()
                == DEFAULT_COUPLED_MAX_PER_ROUND)

    def test_explicit_cap_wins_over_the_coupled_default(self):
        settings = AntiEntropyConfig(capacity_coupled=True,
                                     max_versions_per_round=1_000_000)
        assert settings.effective_max_per_round() == 1_000_000

    def test_uncoupled_default_remains_unbounded(self):
        assert AntiEntropyConfig().effective_max_per_round() is None


class TestCoupledReplication:
    def test_writes_still_propagate(self):
        testbed = coupled_testbed()
        remote = testbed.make_client(
            "eventual", home_cluster=testbed.config.cluster_names[1])
        write_burst(testbed, 1)
        testbed.run(1_000.0)
        read = testbed.env.run_until_complete(remote.execute(
            Transaction([Operation.read("key0")])))
        assert read.value_read("key0") == "v"

    def test_rounds_flow_through_the_server_queue(self):
        testbed = coupled_testbed()
        write_burst(testbed, 3)
        testbed.run(200.0)
        sender = testbed.server_list()[0]
        # The coupled round arrived as an "ae.round" request and its push
        # cost was accounted as worker (busy) time.
        assert sender.stats.per_kind.get("ae.round", 0) >= 1
        assert sender.anti_entropy.stats.versions_pushed >= 3

    def test_push_cost_occupies_the_worker(self):
        # 100 versions at 1 ms each: the catch-up round's service time must
        # show up as at least ~100 ms of busy time on the sending server.
        # Partition first so the whole backlog is pushed after the snapshot.
        testbed = build_testbed(Scenario(
            regions=["VA", "OR"], servers_per_cluster=1,
            anti_entropy=AntiEntropyConfig(
                interval_ms=5.0, capacity_coupled=True,
                send_cost_ms_per_version=1.0,
                max_versions_per_round=1_000_000)))
        testbed.partition_regions([["VA"], ["OR"]])
        write_burst(testbed, 100)
        sender = testbed.server_list()[0]
        busy_before = sender.stats.busy_ms
        testbed.network.partitions.heal()
        testbed.run(500.0)
        assert sender.stats.busy_ms - busy_before >= 100.0


class TestHealBurstRegression:
    def test_partition_backlog_drains_over_multiple_rounds(self):
        """A heal backlog over the cap must not land as one round."""
        testbed = coupled_testbed()  # default cap (64)
        testbed.partition_regions([["VA"], ["OR"]])
        write_burst(testbed, 3 * DEFAULT_COUPLED_MAX_PER_ROUND)
        sender = testbed.server_list()[0]
        rounds_before = sender.anti_entropy.stats.rounds
        pushed_before = sender.anti_entropy.stats.versions_pushed
        testbed.network.partitions.heal()
        testbed.run(2_000.0)
        rounds = sender.anti_entropy.stats.rounds - rounds_before
        pushed = sender.anti_entropy.stats.versions_pushed - pushed_before
        assert pushed >= 3 * DEFAULT_COUPLED_MAX_PER_ROUND
        # The burst spread across at least ceil(backlog / cap) rounds.
        assert rounds >= 3

    def test_unbounded_cap_reproduces_the_single_burst(self):
        """The naive configuration the metastability artifact relies on."""
        testbed = coupled_testbed(max_versions_per_round=1_000_000)
        testbed.partition_regions([["VA"], ["OR"]])
        write_burst(testbed, 3 * DEFAULT_COUPLED_MAX_PER_ROUND)
        sender = testbed.server_list()[0]
        rounds_before = sender.anti_entropy.stats.rounds
        pushed_before = sender.anti_entropy.stats.versions_pushed
        testbed.network.partitions.heal()
        testbed.run(2_000.0)
        pushed = sender.anti_entropy.stats.versions_pushed - pushed_before
        rounds = sender.anti_entropy.stats.rounds - rounds_before
        # The whole backlog lands, and it lands in (at most a couple of)
        # rounds rather than spreading over ceil(backlog / cap).
        assert pushed >= 3 * DEFAULT_COUPLED_MAX_PER_ROUND
        assert rounds <= 2
