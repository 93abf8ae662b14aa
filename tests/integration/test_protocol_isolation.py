"""End-to-end isolation verification: recorded histories vs. the Adya checker.

These are the library's most important integration tests: they run real
workloads through the simulated protocols, record every transaction, and feed
the resulting histories to the phenomenon detectors.  Each HAT protocol must
deliver exactly the guarantees Section 5 claims for it.
"""

import pytest

from repro.adya.history import HistoryRecorder
from repro.adya.phenomena import G0, G1A, G1B, G1C, LOST_UPDATE, OTV, detect
from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload


def drive_workload(protocol, transactions_per_client=25, clients=4,
                   write_proportion=0.5, key_count=40, seed=0,
                   min_commit_fraction=0.9):
    """Run a small concurrent workload and return the recorded history."""
    testbed = build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2,
                                     seed=seed))
    recorder = HistoryRecorder()
    env = testbed.env
    results = []

    def loop(client, workload):
        for _ in range(transactions_per_client):
            result = yield client.execute(workload.next_transaction())
            results.append(result)

    for index in range(clients):
        cluster = testbed.config.cluster_names[index % len(testbed.config.cluster_names)]
        client = testbed.make_client(protocol, home_cluster=cluster, recorder=recorder)
        workload = YCSBWorkload(
            YCSBConfig(operations_per_transaction=4, key_count=key_count,
                       write_proportion=write_proportion),
            seed=seed * 100 + index, session_id=index,
        )
        env.process(loop(client, workload))

    env.run(until=env.now + 60_000.0)
    history = recorder.build()
    expected = clients * transactions_per_client * min_commit_fraction
    assert len(history.committed()) >= expected
    return history


class TestReadCommittedProtocol:
    def test_rc_histories_satisfy_read_committed(self, claims_hold):
        claims_hold("read-committed", drive_workload("read-committed"))

    def test_rc_histories_satisfy_read_uncommitted(self, claims_hold):
        claims_hold("read-committed", drive_workload("read-committed"))


class TestEventualProtocol:
    def test_eventual_histories_never_show_dirty_writes(self, claims_hold):
        """Last-writer-wins gives a total per-item write order, so G0 cycles
        cannot occur even though isolation is only Read Uncommitted."""
        history = drive_workload("eventual")
        assert not detect(history, G0)
        claims_hold("eventual", history)

    def test_eventual_histories_never_read_aborted_data(self):
        """Read Uncommitted permits intermediate reads (G1b) — transactions
        expose writes as soon as they are issued — but aborted reads (G1a)
        still cannot occur because the eventual protocol never aborts after
        applying a write."""
        history = drive_workload("eventual")
        assert not detect(history, G1A)


class TestMAVProtocol:
    def test_mav_histories_satisfy_monotonic_atomic_view(self, claims_hold):
        claims_hold("mav", drive_workload("mav"))

    def test_mav_histories_never_show_otv(self):
        history = drive_workload("mav", write_proportion=0.7)
        assert not detect(history, OTV)


class TestSerializableBaseline:
    def test_two_phase_locking_prevents_lost_update(self, claims_hold):
        """The non-HAT baseline must prevent what HATs cannot.

        Deadlock victims abort (external aborts), so the commit-fraction bar
        is lower than for the HAT protocols; the committed transactions must
        still be anomaly-free, down to every level 1SR entails in Figure 2.
        """
        history = drive_workload("two-phase-locking", transactions_per_client=10,
                                 clients=3, key_count=10, min_commit_fraction=0.5)
        assert not detect(history, LOST_UPDATE)
        assert not detect(history, G1C)
        claims_hold("two-phase-locking", history)


class TestHATLimitations:
    def test_hat_protocols_can_exhibit_lost_update_under_contention(self, claims_hold):
        """The flip side of availability (Section 5.2.1): concurrent
        read-modify-write increments on a HAT protocol lose updates."""
        testbed = build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=1))
        recorder = HistoryRecorder()
        env = testbed.env
        clients = [testbed.make_client("read-committed", recorder=recorder,
                                       home_cluster=name)
                   for name in testbed.config.cluster_names]

        def increment_loop(client, repetitions=15):
            # Each iteration is a single read-modify-write transaction on the
            # shared counter (the value written is the client's running guess;
            # the Lost Update structure only depends on the read/write graph).
            guess = 0
            for _ in range(repetitions):
                result = yield client.execute(Transaction([
                    Operation.read("counter"),
                    Operation.write("counter", guess + 1),
                ]))
                observed = result.value_read("counter") or 0
                guess = max(guess, observed) + 1

        for client in clients:
            env.process(increment_loop(client))
        env.run(until=env.now + 60_000.0)

        history = recorder.build()
        assert detect(history, LOST_UPDATE), (
            "concurrent increments through a HAT protocol should exhibit "
            "Lost Update"
        )
        # ... while still satisfying the HAT guarantees it promises:
        claims_hold("read-committed", history)
