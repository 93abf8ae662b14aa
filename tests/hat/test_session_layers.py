"""Per-guarantee session layers under partitions (Section 5.1.3).

For each of RYW/MR/MW/WFR: a partition forces the session (or its readers)
onto a different replica set, the corresponding layer upholds the guarantee,
and a no-layer control run exhibits exactly the violation the layer exists
to prevent.
"""

import pytest

from repro.adya.history import HistoryRecorder
from repro.adya.phenomena import MRWD, MYR, N_MR, detect
from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation
from repro.replication.antientropy import AntiEntropyConfig
from txn import run_txn


def frozen_ae_testbed():
    """Two regions whose replicas only converge through explicit action.

    The huge anti-entropy interval keeps the clusters divergent for the whole
    test, so which side holds which version is fully deterministic.
    """
    return build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2,
                                  anti_entropy=AntiEntropyConfig(interval_ms=600_000.0)))


def partition_away(testbed, cluster_name):
    """Make ``cluster_name``'s servers unreachable from everyone else."""
    dead = set(testbed.config.cluster(cluster_name).servers)
    testbed.network.partitions.partition_by(
        lambda site: None if site in dead else "rest"
    )


class TestReadYourWrites:
    def scenario(self, protocol, recorder=None):
        testbed = frozen_ae_testbed()
        home = testbed.config.cluster_names[0]
        session = testbed.make_client(protocol, home_cluster=home,
                                      recorder=recorder)
        run_txn(testbed, session, [Operation.write("profile", "mine")])
        partition_away(testbed, home)
        result = run_txn(testbed, session, [Operation.read("profile")])
        return session, result

    def test_control_exhibits_ryw_violation(self):
        recorder = HistoryRecorder()
        _, result = self.scenario("read-committed", recorder)
        assert result.value_read("profile") is None
        assert detect(recorder.build(), MYR)

    def test_ryw_layer_upholds_guarantee_across_failover(self):
        recorder = HistoryRecorder()
        session, result = self.scenario("read-committed+ryw", recorder)
        assert result.value_read("profile") == "mine"
        assert session.violations() == 0
        assert session.session.cache_hits >= 1
        assert not detect(recorder.build(), MYR)


class TestMonotonicReads:
    def scenario(self, protocol, recorder=None):
        # Both clusters converge on "old"; only the home cluster sees "new".
        testbed = build_testbed(Scenario(regions=["VA", "OR"],
                                         servers_per_cluster=2,
                                         anti_entropy=AntiEntropyConfig(interval_ms=500.0)))
        home = testbed.config.cluster_names[0]
        writer = testbed.make_client("eventual", home_cluster=home,
                                     recorder=recorder)
        run_txn(testbed, writer, [Operation.write("feed", "old")])
        testbed.run(2_000.0)  # anti-entropy copies "old" everywhere
        run_txn(testbed, writer, [Operation.write("feed", "new")])
        session = testbed.make_client(protocol, home_cluster=home,
                                      recorder=recorder)
        first = run_txn(testbed, session, [Operation.read("feed")])
        assert first.value_read("feed") == "new"
        partition_away(testbed, home)
        second = run_txn(testbed, session, [Operation.read("feed")])
        return session, second

    def test_control_reads_go_backwards(self):
        recorder = HistoryRecorder()
        _, second = self.scenario("read-committed", recorder)
        assert second.value_read("feed") == "old"
        assert detect(recorder.build(), N_MR)

    def test_mr_layer_upholds_guarantee_across_failover(self):
        recorder = HistoryRecorder()
        session, second = self.scenario("read-committed+mr", recorder)
        assert second.value_read("feed") == "new"
        assert session.violations() == 0
        assert not detect(recorder.build(), N_MR)


class TestMonotonicWrites:
    def scenario(self, protocol):
        testbed = frozen_ae_testbed()
        home, away = testbed.config.cluster_names
        session = testbed.make_client(protocol, home_cluster=home)
        reader = testbed.make_client("eventual", home_cluster=away)
        run_txn(testbed, session, [Operation.write("first", "w1")])
        partition_away(testbed, home)
        run_txn(testbed, session, [Operation.write("second", "w2")])
        observed = run_txn(testbed, reader, [Operation.read("second"),
                                         Operation.read("first")])
        return observed

    def test_control_reveals_later_write_without_earlier(self):
        observed = self.scenario("read-committed")
        assert observed.value_read("second") == "w2"
        assert observed.value_read("first") is None

    def test_mw_layer_forwards_earlier_session_writes(self):
        """Before the failed-over write lands, the session's earlier writes
        are installed on the same side of the partition."""
        observed = self.scenario("read-committed+mw")
        assert observed.value_read("second") == "w2"
        assert observed.value_read("first") == "w1"


class TestWritesFollowReads:
    def scenario(self, protocol, recorder=None):
        testbed = frozen_ae_testbed()
        home, away = testbed.config.cluster_names
        author = testbed.make_client("eventual", home_cluster=home,
                                     recorder=recorder)
        session = testbed.make_client(protocol, home_cluster=home,
                                      recorder=recorder)
        reader = testbed.make_client("eventual", home_cluster=away,
                                     recorder=recorder)
        run_txn(testbed, author, [Operation.write("message", "hello")])
        seen = run_txn(testbed, session, [Operation.read("message")])
        assert seen.value_read("message") == "hello"
        partition_away(testbed, home)
        run_txn(testbed, session, [Operation.write("reply", "hello yourself")])
        observed = run_txn(testbed, reader, [Operation.read("reply"),
                                         Operation.read("message")])
        return observed

    def test_control_reveals_reply_without_cause(self):
        recorder = HistoryRecorder()
        observed = self.scenario("read-committed", recorder)
        assert observed.value_read("reply") == "hello yourself"
        assert observed.value_read("message") is None
        assert detect(recorder.build(), MRWD)

    def test_wfr_layer_forwards_observed_versions(self):
        """The session pushes what it has read to the failover replicas
        before its own dependent write becomes visible there."""
        recorder = HistoryRecorder()
        observed = self.scenario("read-committed+wfr", recorder)
        assert observed.value_read("reply") == "hello yourself"
        assert observed.value_read("message") == "hello"
        assert not detect(recorder.build(), MRWD)


class TestRepairedReadsDoNotPoisonForwarding:
    def test_cache_repaired_read_still_forwards_dependency(self):
        """A read repaired from the session cache says nothing about what the
        stale replica holds, so forwarding must still push the dependency.

        Regression: noting the failover replica as a holder of the *repaired*
        version would silently skip WFR forwarding, and a reader there would
        observe the session's write without its cause.
        """
        testbed = frozen_ae_testbed()
        home, away = testbed.config.cluster_names
        session = testbed.make_client("causal", home_cluster=home)
        reader = testbed.make_client("eventual", home_cluster=away)
        run_txn(testbed, session, [Operation.write("cause", "x")])
        partition_away(testbed, home)
        # The failover replica returns the initial version; the session cache
        # repairs the observation — but the replica is still stale.
        repaired = run_txn(testbed, session, [Operation.read("cause")])
        assert repaired.value_read("cause") == "x"
        run_txn(testbed, session, [Operation.write("effect", "y")])
        observed = run_txn(testbed, reader, [Operation.read("effect"),
                                         Operation.read("cause")])
        assert observed.value_read("effect") == "y"
        assert observed.value_read("cause") == "x"


class TestForwardingIsLazy:
    def test_no_forwarding_rpcs_on_healthy_network(self):
        """On an unpartitioned deployment the sticky replica already holds
        the session's memory, so MW/WFR forwarding issues no extra RPCs."""
        testbed = frozen_ae_testbed()
        session = testbed.make_client("causal")
        run_txn(testbed, session, [Operation.write("a", 1)])
        run_txn(testbed, session, [Operation.read("a")])
        result = run_txn(testbed, session, [Operation.write("b", 2)])
        # One flush RPC for the write of b; nothing forwarded for a.
        assert result.remote_rpcs == 0
        assert session.session.holders_of(
            "a", session.session.own_writes["a"].timestamp
        )

    def test_superseded_versions_are_not_forwarded_again(self):
        """A holder of a newer version of the key holds the older one too.

        Regression: after reading ``k@t1`` and then writing ``k@t2`` (or
        writing ``k`` and then reading someone's newer write of it), the
        older remembered version matched no holder entry and was re-sent —
        a blocking RPC — before every later writing transaction.
        """
        testbed = frozen_ae_testbed()
        author = testbed.make_client("eventual")
        session = testbed.make_client("causal")
        run_txn(testbed, author, [Operation.write("read-then-written", 1)])
        run_txn(testbed, session, [Operation.read("read-then-written")])
        run_txn(testbed, session, [Operation.write("read-then-written", 2),
                               Operation.write("written-then-read", 3)])
        # The author reads first so its write orders after the session's.
        run_txn(testbed, author, [Operation.read("written-then-read"),
                              Operation.write("written-then-read", 4)])
        seen = run_txn(testbed, session, [Operation.read("written-then-read")])
        assert seen.value_read("written-then-read") == 4
        for i in range(5):
            result = run_txn(testbed, session, [Operation.write(f"later{i}", i)])
            assert result.committed
        assert session.session.forwards_issued == 0


def run_spying_forwards(testbed, client, operations):
    """Run one transaction; also return the ``(key, timestamp, replica)`` of
    every dependency it forwarded (puts for keys it does not itself write)."""
    puts = []
    original = client._issue

    def spy(result, dst, kind, payload, size_bytes=0):
        if kind == client.put_kind:
            version = payload["version"]
            puts.append((version.key, version.timestamp, dst))
        return original(result, dst, kind, payload, size_bytes)

    client._issue = spy
    try:
        result = run_txn(testbed, client, operations)
    finally:
        del client._issue
    written = {op.key for op in operations if op.kind == "write"}
    return result, [put for put in puts if put[0] not in written]


class TestOwedIndex:
    """Forwarding examines only the keys that can be owed (the owed set),
    and every remembered key again once routing has moved."""

    def session_with_memory(self, testbed, keys):
        home = testbed.config.cluster_names[0]
        session = testbed.make_client("causal", home_cluster=home)
        for key in keys:
            run_txn(testbed, session, [Operation.write(key, key.upper())])
        return session, home

    def remembered(self, session):
        return {key: version.timestamp
                for key, version in session.session.own_writes.items()}

    def test_probes_per_transaction_do_not_grow_with_session_length(self):
        """While routing stays put, forwarding examines nothing however long
        the session grows; each routing change costs one pass over the
        session's memory, then nothing again."""
        testbed = frozen_ae_testbed()
        session = testbed.make_client("causal")
        state = session.session
        passes = []
        for i in range(100):
            if i in (25, 75):
                # A new partition generation: routing may have moved (it did
                # not, so the pass finds every key held and forwards nothing).
                testbed.network.partitions.clear_partition()
                passes.append(len(state.last_seen) + len(state.own_writes))
            run_txn(testbed, session, [Operation.read(f"k{i - 1}"),
                                   Operation.write(f"k{i}", i)])
        assert len(state.own_writes) == 100
        assert passes == [50, 150]
        assert state.forward_probes == sum(passes)
        assert state.forwards_issued == 0

    @pytest.mark.parametrize("spec", ["ryw", "mr", "read-committed+ryw"])
    def test_a_stack_that_forwards_nothing_notes_no_holders(self, spec):
        testbed = frozen_ae_testbed()
        session = testbed.make_client(spec)
        run_txn(testbed, session, [Operation.write("a", 1), Operation.read("a"),
                               Operation.read("b")])
        state = session.session
        assert state.last_seen or state.own_writes
        assert state.holders == {}
        assert (state.seen_owed, state.own_owed) == (None, None)

    def test_isolating_the_sticky_replica_forwards_what_the_failover_lacks(self):
        testbed = frozen_ae_testbed()
        keys = [f"k{i}" for i in range(8)]
        session, home = self.session_with_memory(testbed, keys)
        remembered = self.remembered(session)
        index = testbed.config.cluster_index(home)
        victim = testbed.config.placements["k0"].replicas[index]
        stranded = {key for key in keys
                    if testbed.config.placements[key].replicas[index] == victim}
        assert stranded and stranded != set(keys)
        testbed.network.partitions.isolate(victim)

        _, forwards = run_spying_forwards(
            testbed, session, [Operation.write("fresh", 1)])
        assert {key for key, _, _ in forwards} == stranded
        for key, timestamp, replica in forwards:
            assert timestamp == remembered[key]
            assert replica in testbed.config.replicas_for(key)
            assert testbed.config.cluster_of_server(replica) != home
        _, again = run_spying_forwards(
            testbed, session, [Operation.write("fresher", 2)])
        assert again == []

    def test_ring_join_forwards_the_keys_that_moved_to_the_joiner(self):
        testbed = build_testbed(Scenario(regions=["VA", "OR"],
                                         servers_per_cluster=2,
                                         placement="ring",
                                         anti_entropy=AntiEntropyConfig(interval_ms=600_000.0)))
        keys = [f"k{i}" for i in range(40)]
        session, home = self.session_with_memory(testbed, keys)
        remembered = self.remembered(session)
        joiner = testbed.add_server(home).name
        testbed.config.add_server(home, joiner)
        index = testbed.config.cluster_index(home)
        moved = {key for key in keys
                 if testbed.config.placements[key].replicas[index] == joiner}
        assert moved and len(moved) < len(keys)

        _, forwards = run_spying_forwards(
            testbed, session, [Operation.write("fresh", 1)])
        assert sorted(forwards) == sorted(
            (key, remembered[key], joiner) for key in moved)
        _, again = run_spying_forwards(
            testbed, session, [Operation.write("fresher", 2)])
        assert again == []
        assert session.session.forwards_issued == len(moved)
