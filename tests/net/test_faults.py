"""Tests for timed faults: partitions, crashes and isolations on a schedule.

The schedule is a :class:`Campaign` installed by the :class:`Nemesis`.  The
cases stay at this path (rather than in ``tests/chaos/test_nemesis.py``) so
their ids do not change.
"""

import pytest

from repro.chaos.campaign import Campaign, CampaignAction, CampaignError
from repro.chaos.nemesis import Nemesis
from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation
from txn import run_txn

GROUPS = (("VA",), ("OR",))


@pytest.fixture
def testbed():
    return build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))


def campaign(*actions):
    return Campaign(duration_ms=30_000.0, actions=tuple(actions), phases=())


def install(testbed, *actions):
    nemesis = Nemesis(testbed, campaign(*actions))
    nemesis.install()
    return nemesis


class TestScheduleConstruction:
    def test_timeline_is_sorted(self, testbed):
        timeline = campaign(
            CampaignAction(at_ms=500.0, kind="clear-partition"),
            CampaignAction(at_ms=100.0, kind="partition", groups=GROUPS),
        ).timeline()
        assert [event.at_ms for event in timeline] == [100.0, 500.0]

    def test_negative_time_rejected(self, testbed):
        with pytest.raises(CampaignError):
            install(testbed, CampaignAction(at_ms=-1.0, kind="clear-partition"))

    def test_unknown_server_rejected(self, testbed):
        with pytest.raises(CampaignError):
            install(testbed,
                    CampaignAction(at_ms=10.0, kind="crash", target="ghost"))

    def test_double_install_rejected(self, testbed):
        nemesis = install(testbed,
                          CampaignAction(at_ms=10.0, kind="clear-partition"))
        with pytest.raises(CampaignError):
            nemesis.install()


class TestScheduledPartition:
    def test_partition_applies_and_heals_on_schedule(self, testbed):
        install(testbed,
                CampaignAction(at_ms=1_000.0, kind="partition", groups=GROUPS),
                CampaignAction(at_ms=5_000.0, kind="clear-partition"))

        quorum_client = testbed.make_client("quorum")
        # Before the partition: quorum writes succeed.
        assert run_txn(testbed, quorum_client, [Operation.write("a", 1)]).committed
        # Advance into the partition window: quorum writes abort, HAT commits.
        testbed.run(2_000.0)
        assert not run_txn(testbed, quorum_client, [Operation.write("b", 2)]).committed
        hat_client = testbed.make_client("read-committed")
        assert run_txn(testbed, hat_client, [Operation.write("c", 3)]).committed
        # Advance past the heal: quorum recovers.
        testbed.run(20_000.0)
        assert run_txn(testbed, quorum_client, [Operation.write("d", 4)]).committed

    def test_crash_and_recover_server(self, testbed):
        victim = testbed.config.all_servers[0]
        install(testbed,
                CampaignAction(at_ms=100.0, kind="crash", target=victim),
                CampaignAction(at_ms=1_100.0, kind="recover", target=victim))
        testbed.run(200.0)
        assert not testbed.servers[victim].alive
        testbed.run(2_000.0)
        assert testbed.servers[victim].alive

    def test_isolate_and_rejoin(self, testbed):
        victim = testbed.config.all_servers[0]
        install(testbed,
                CampaignAction(at_ms=50.0, kind="isolate", target=victim),
                CampaignAction(at_ms=500.0, kind="rejoin", target=victim))
        testbed.run(100.0)
        assert not testbed.network.partitions.connected(victim,
                                                        testbed.config.all_servers[1])
        testbed.run(1_000.0)
        assert testbed.network.partitions.connected(victim,
                                                    testbed.config.all_servers[1])
