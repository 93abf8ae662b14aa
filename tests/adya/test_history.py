"""Unit tests for histories, the builder, and the recorder."""

import gc

import pytest

from repro.adya.history import History, HistoryBuilder, HistoryRecorder, HistoryTransaction, WriteEvent
from repro.bench.runner import RunConfig, run_workload
from repro.errors import IsolationError
from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction
from repro.sim.events import gc_paused


class TestHistory:
    def test_add_transaction_updates_version_order(self):
        history = History()
        t1 = HistoryTransaction(txn_id=1, writes=[WriteEvent("x", 1)])
        t2 = HistoryTransaction(txn_id=2, writes=[WriteEvent("x", 2)])
        history.add_transaction(t1)
        history.add_transaction(t2)
        assert history.version_order["x"] == [1, 2]

    def test_aborted_transactions_not_in_version_order(self):
        history = History()
        history.add_transaction(HistoryTransaction(txn_id=1, committed=False,
                                                   writes=[WriteEvent("x", 1)]))
        assert "x" not in history.version_order
        assert len(history.aborted()) == 1

    def test_duplicate_ids_rejected(self):
        history = History()
        history.add_transaction(HistoryTransaction(txn_id=1))
        with pytest.raises(IsolationError):
            history.add_transaction(HistoryTransaction(txn_id=1))

    def test_version_position_and_next_writer(self):
        history = History()
        for txn_id in (1, 2, 3):
            history.add_transaction(HistoryTransaction(txn_id=txn_id,
                                                       writes=[WriteEvent("x", txn_id)]))
        assert history.version_position("x", None) == -1
        assert history.version_position("x", 2) == 1
        assert history.next_writer("x", 1) == 2
        assert history.next_writer("x", 3) is None
        assert history.next_writer("x", None) == 1

    def test_explicit_version_order_override(self):
        history = History()
        history.add_transaction(HistoryTransaction(txn_id=1, writes=[WriteEvent("x", 1)]))
        history.add_transaction(HistoryTransaction(txn_id=2, writes=[WriteEvent("x", 2)]))
        history.set_version_order("x", [2, 1])
        assert history.version_order["x"] == [2, 1]
        with pytest.raises(IsolationError):
            history.set_version_order("x", [99])

    def test_sessions_grouped_in_commit_order(self):
        history = History()
        history.add_transaction(HistoryTransaction(txn_id=5, session_id=1))
        history.add_transaction(HistoryTransaction(txn_id=3, session_id=1))
        history.add_transaction(HistoryTransaction(txn_id=9, session_id=2))
        sessions = history.sessions()
        assert [t.txn_id for t in sessions[1]] == [5, 3]
        assert [t.txn_id for t in sessions[2]] == [9]


class TestHistoryBuilder:
    def test_fluent_construction(self):
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1).write("y", 1)
        t2 = builder.transaction()
        t2.read("x", from_txn=t1.txn_id, value=1)
        history = builder.build()
        assert len(history.transactions) == 2
        assert history.transaction(t2.txn_id).reads[0].writer_txn == t1.txn_id

    def test_abort_marks_transaction(self):
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1).abort()
        history = builder.build()
        assert not history.transaction(t1.txn_id).committed

    def test_explicit_txn_ids_and_sessions(self):
        builder = HistoryBuilder()
        t1 = builder.transaction(session=7, txn_id=100)
        t1.write("x", 1)
        history = builder.build()
        assert history.transaction(100).session_id == 7

    def test_version_order_declaration(self):
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1)
        t2 = builder.transaction()
        t2.write("x", 2)
        builder.version_order("x", t2.txn_id, t1.txn_id)
        history = builder.build()
        assert history.version_order["x"] == [t2.txn_id, t1.txn_id]


class TestHistoryRecorder:
    def test_recorder_builds_history_from_live_run(self):
        testbed = build_testbed(Scenario(regions=["VA"], servers_per_cluster=2,
                                         fixed_latency_ms=1.0))
        recorder = HistoryRecorder()
        client = testbed.make_client("read-committed", recorder=recorder)
        testbed.env.run_until_complete(client.execute(
            Transaction([Operation.write("x", 1), Operation.write("y", 2)])
        ))
        testbed.env.run_until_complete(client.execute(
            Transaction([Operation.read("x"), Operation.read("y")])
        ))
        assert len(recorder) == 2
        history = recorder.build()
        assert len(history.committed()) == 2
        assert history.version_order["x"] != []
        reader = [t for t in history.committed() if t.reads][0]
        assert {read.key for read in reader.reads} == {"x", "y"}

    def test_recorder_marks_aborts(self):
        testbed = build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=1))
        testbed.partition_regions([["VA"], ["OR"]])
        recorder = HistoryRecorder()
        client = testbed.make_client("quorum", recorder=recorder)
        testbed.env.run_until_complete(client.execute(
            Transaction([Operation.write("x", 1)])
        ))
        history = recorder.build()
        assert len(history.aborted()) == 1


class TestHistoryRecorderBuildsWithTheCollectorPaused:
    @pytest.fixture(scope="class")
    def recorder(self):
        scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2, seed=0)
        recorder = HistoryRecorder()
        run_workload(RunConfig(protocol="eventual", scenario=scenario,
                               duration_ms=300.0, warmup_ms=0.0, seed=0),
                     recorder=recorder)
        assert len(recorder) > 100
        return recorder

    def test_build_leaves_the_collector_as_it_found_it(self, recorder):
        gc.enable()
        recorder.build()
        assert gc.isenabled()
        with gc_paused():
            recorder.build()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_a_paused_build_equals_a_collected_one(self, recorder):
        """The same history with the collector run every 100 allocations;
        the paused build runs none, not even when the first allocations
        after it resume the collector: the build's survivors were handed
        to the oldest generation unscanned."""
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        threshold = gc.get_threshold()
        gc.enable()
        gc.set_threshold(100)
        gc.callbacks.append(count)
        try:
            paused = recorder.build()
            paused_collections = len(collections)
            collected = HistoryRecorder.build.__wrapped__(recorder)
        finally:
            gc.callbacks.remove(count)
            gc.set_threshold(*threshold)
        assert paused_collections == 0 < len(collections)
        # Transactions compare with their read/write events and commit_order.
        assert list(paused.transactions.items()) == list(
            collected.transactions.items())
        assert list(paused.version_order.items()) == list(
            collected.version_order.items())
