"""Cross-cutting integration scenarios.

These tests exercise combinations the unit tests do not: cut isolation plus
sessions stacked on one client, HAT and non-HAT clients sharing one
deployment, and convergence after a long partition with traffic on both
sides (the paper's eventual-consistency guarantee, Section 5.1.4).
"""

import pytest

from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction


@pytest.fixture
def testbed():
    return build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))


def run(testbed, client, operations):
    return testbed.env.run_until_complete(
        client.execute(Transaction(list(operations)))
    )


class TestStackedWrappers:
    def test_session_over_cut_isolation_over_rc(self, testbed):
        """One spec stacks both layer families; guarantees compose."""
        client = testbed.make_client("read-committed+ci+causal")
        run(testbed, client, [Operation.write("k", "v1")])
        result = run(testbed, client, [Operation.read("k"), Operation.read("k")])
        values = [obs.version.value for obs in result.reads]
        assert values == ["v1", "v1"]


class TestMixedProtocolsOneDeployment:
    def test_hat_and_master_clients_share_servers(self, testbed):
        """A master client's write is immediately visible to another master
        client and eventually visible to a HAT client via anti-entropy."""
        master_writer = testbed.make_client("master")
        master_reader = testbed.make_client(
            "master", home_cluster=testbed.config.cluster_names[1])
        hat_reader = testbed.make_client(
            "eventual", home_cluster=testbed.config.cluster_names[1])
        run(testbed, master_writer, [Operation.write("shared", "from-master")])
        assert run(testbed, master_reader,
                   [Operation.read("shared")]).value_read("shared") == "from-master"
        testbed.run(2000.0)
        assert run(testbed, hat_reader,
                   [Operation.read("shared")]).value_read("shared") == "from-master"

    def test_hat_write_visible_to_master_reader_at_master_site(self, testbed):
        hat_writer = testbed.make_client("eventual")
        master_reader = testbed.make_client("master")
        run(testbed, hat_writer, [Operation.write("hat-key", 1)])
        testbed.run(2000.0)  # anti-entropy reaches the key's master replica
        assert run(testbed, master_reader,
                   [Operation.read("hat-key")]).value_read("hat-key") == 1


class TestConvergenceAfterPartition:
    def test_divergent_writes_converge_to_one_winner(self, testbed):
        """Convergence (Section 5.1.4): after the partition heals, all
        replicas agree on a single last-writer-wins value per item."""
        clients = [testbed.make_client("eventual", home_cluster=name)
                   for name in testbed.config.cluster_names]
        testbed.partition_regions([["VA"], ["OR"]])
        for index, client in enumerate(clients):
            for round_number in range(3):
                result = run(testbed, client,
                             [Operation.write("contested", f"side{index}-r{round_number}")])
                assert result.committed
        testbed.network.partitions.heal()
        testbed.run(3000.0)
        observed = {
            run(testbed, client, [Operation.read("contested")]).value_read("contested")
            for client in clients
        }
        assert len(observed) == 1
        replicas = testbed.config.replicas_for("contested")
        stored = {testbed.servers[r].store.data.latest("contested").value
                  for r in replicas}
        assert stored == observed
