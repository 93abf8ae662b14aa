"""Regression tests: replica memory stays bounded over long write streams.

Servers used to retain every version of every key forever — a leak that
only showed up in long chaos runs.  ``Scenario.keep_versions`` now bounds
per-key retention on every server's store, and the WAL caps its record
list, so sustained write traffic cannot grow replica memory without bound.
MAV's stability bookkeeping compacts to one timestamp per transaction.
"""

from repro.bench.runner import RunConfig, run_workload
from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction
from repro.storage.kvstore import VersionedStore
from repro.storage.records import Timestamp, Version


def _version(key: str, sequence: int) -> Version:
    return Version(key=key, value=sequence,
                   timestamp=Timestamp(sequence=sequence, client_id=1))


class TestKeepVersionsBound:
    def test_versioned_store_honours_bound_on_append_fast_path(self):
        store = VersionedStore(keep_versions=8)
        for sequence in range(100):
            assert store.install(_version("hot", sequence))
        assert len(store.versions("hot")) == 8
        # The newest versions survive, oldest are trimmed.
        assert [v.value for v in store.versions("hot")] == list(range(92, 100))

    def test_versioned_store_honours_bound_on_out_of_order_installs(self):
        store = VersionedStore(keep_versions=4)
        for sequence in (10, 2, 7, 5, 9, 1, 8, 3):
            store.install(_version("k", sequence))
        values = [v.value for v in store.versions("k")]
        assert len(values) == 4
        assert values == sorted(values)

    def test_long_run_keeps_server_version_counts_bounded(self):
        """A hot-key write stream through a real testbed stays bounded."""
        testbed = build_testbed(Scenario(regions=["VA"], servers_per_cluster=2,
                                         fixed_latency_ms=1.0,
                                         keep_versions=16))
        client = testbed.make_client("eventual")
        for index in range(200):
            result = testbed.env.run_until_complete(client.execute(
                Transaction([Operation.write("hot-key", index)])))
            assert result.committed
        testbed.run(500.0)  # let anti-entropy finish replicating
        for server in testbed.server_list():
            for key in server.store.data.keys():
                retained = len(server.store.data.versions(key))
                assert retained <= 16, (server.name, key, retained)

    def test_server_wal_record_list_is_capped(self):
        testbed = build_testbed(Scenario(regions=["VA"], servers_per_cluster=1,
                                         fixed_latency_ms=1.0))
        client = testbed.make_client("eventual")
        for index in range(60):
            testbed.env.run_until_complete(client.execute(
                Transaction([Operation.write(f"k{index % 5}", index)])))
        for server in testbed.server_list():
            assert len(server.wal._records) <= server.wal.max_records
            # LSNs keep advancing even though old records are dropped.
            assert server.wal._next_lsn - 1 >= len(server.wal._records) - 1


class TestMAVBookkeepingBound:
    def test_closed_loop_run_leaves_only_stable_timestamps(self):
        """Once every transaction is stable no ack entry, ack set or pending
        write survives: the stable timestamp is the only per-txn residue."""
        scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2, seed=3)
        testbed = build_testbed(scenario)
        stats = run_workload(RunConfig(protocol="mav", scenario=scenario,
                                       duration_ms=400.0, warmup_ms=0.0,
                                       seed=3), testbed=testbed)
        assert stats.committed > 50
        remembered = 0
        for server in testbed.server_list():
            mav = server.mav
            assert len(mav._pending) == 0, server.name
            assert mav.stats.promoted == mav.stats.puts == server.store.stats.puts
            remembered += len(mav._stable)
        # One timestamp per server a transaction touched: never more than
        # one per (transaction, server), however many keys and acks it had.
        assert remembered <= stats.committed * len(testbed.server_list())
