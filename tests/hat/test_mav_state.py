"""Unit tests for the MAV pending/good/acknowledgement state machine."""

from repro.cluster.config import build_cluster_config
from repro.hat.mav_state import MAVState
from repro.storage.records import Timestamp, Version

#: A two-region deployment, one server each: every key lives on both.
HERE, THERE = "cluster0-VA-s0", "cluster1-OR-s0"


def mav_state(regions=("VA", "OR")):
    return MAVState(HERE, build_cluster_config(list(regions), 1))


def mav_write(key, value, seq, siblings):
    return Version(key=key, value=value, timestamp=Timestamp(seq, 1),
                   txn_id=seq, siblings=frozenset(siblings))


class TestMAVState:
    def test_add_write_dedupes(self):
        state = mav_state()
        version = mav_write("x", 1, 1, {"x", "y"})
        assert state.add_write(version) == []
        assert state.add_write(version) is None
        assert state.pending_count() == 1

    def test_expected_acks_is_siblings_times_replicas(self):
        state = mav_state(("VA", "OR", "SG"))
        state.add_write(mav_write("x", 1, 1, {"x", "y"}))
        entry = state._pending[Timestamp(1, 1)]
        assert entry.expected_acks == 6

    def test_a_first_write_is_acked_here_at_once_and_owed_elsewhere(self):
        state = mav_state()
        ts = Timestamp(1, 1)
        state.add_write(mav_write("x", 1, 1, {"x", "y"}))
        assert state._pending[ts].acks == {(HERE, "x")}
        assert state.owed == {THERE: [(ts, HERE, "x", 4)]}
        assert state.stats.notifies_received == 1

    def test_ack_destinations_are_computed_once_per_transaction(self):
        state = mav_state()
        looked_up = []
        placements = state._placements

        class CountingPlacements(dict):
            def __getitem__(self, key):
                looked_up.append(key)
                return placements[key]

        state._placements = CountingPlacements()
        keys = {"x", "y", "z"}
        for key in sorted(keys):
            state.add_write(mav_write(key, 1, 1, keys))
        assert sorted(looked_up) == sorted(keys)  # not once per write
        assert [ack[2] for ack in state.owed[THERE]] == sorted(keys)

    def test_own_ack_can_complete_a_transaction(self):
        state = mav_state(("VA",))
        version = mav_write("x", 1, 1, {"x"})
        assert state.add_write(version) == [version]
        assert state.is_stable(Timestamp(1, 1))
        assert state.owed == {}

    def test_last_distinct_ack_hands_over_the_writes(self):
        state = mav_state()
        ts = Timestamp(1, 1)
        x, y = mav_write("x", 1, 1, {"x", "y"}), mav_write("y", 2, 1, {"x", "y"})
        assert state.add_write(x) == []
        assert state.record_acks([(ts, THERE, "x", 4)]) == []
        assert state.add_write(y) == []
        assert not state.is_stable(ts)
        assert state.record_acks([(ts, THERE, "y", 4)]) == [x, y]
        assert state.is_stable(ts)
        assert state.pending_count() == 0
        assert state.stats.promoted == 2

    def test_one_batch_completes_transactions_in_ack_order(self):
        state = mav_state()
        first, second = mav_write("x", 1, 1, {"x"}), mav_write("y", 1, 2, {"y"})
        state.add_write(second)
        state.add_write(first)
        batch = [(Timestamp(1, 1), THERE, "x", 2), (Timestamp(9, 1), THERE, "z", 2),
                 (Timestamp(2, 1), THERE, "y", 2)]
        assert state.record_acks(batch) == [first, second]
        assert state.tracked_transactions() == 1  # the one still unheard of
        assert state.stats.notifies_received == 2 + len(batch)

    def test_duplicate_acks_do_not_double_count(self):
        state = mav_state()
        ts = Timestamp(1, 1)
        state.add_write(mav_write("x", 1, 1, {"x", "y"}))
        assert state.record_acks([(ts, THERE, "x", 4)] * 5) == []
        assert state.record_acks([(ts, HERE, "x", 4)]) == []
        assert not state.is_stable(ts)

    def test_acks_after_stability_promote_nothing(self):
        """Only the transition to stable hands writes over, and only once."""
        state = mav_state()
        ts = Timestamp(1, 1)
        version = mav_write("x", 1, 1, {"x"})
        state.add_write(version)
        assert state.record_acks([(ts, THERE, "x", 2)]) == [version]
        assert state.record_acks([(ts, THERE, "x", 2), (ts, "r9", "x", 2)]) == []
        assert state.stats.promoted == 1
        assert state.tracked_transactions() == 0

    def test_stable_transaction_keeps_only_its_timestamp(self):
        state = mav_state()
        ts = Timestamp(1, 1)
        state.add_write(mav_write("x", 1, 1, {"x", "y"}))
        state.add_write(mav_write("y", 1, 1, {"x", "y"}))
        assert state.tracked_transactions() == 1
        assert len(state.record_acks([(ts, THERE, "x", 4),
                                      (ts, THERE, "y", 4)])) == 2
        assert state.tracked_transactions() == 0
        assert state.pending_count() == 0
        assert state.stable_count() == 1

    def test_acks_arriving_before_write(self):
        """Acknowledgements may arrive before the anti-entropied write does."""
        state = mav_state()
        ts = Timestamp(3, 1)
        state.record_acks([(ts, THERE, "x", 4), (ts, THERE, "y", 4),
                           (ts, HERE, "y", 4)])
        assert state.tracked_transactions() == 1
        version = mav_write("x", 1, 3, {"x", "y"})
        assert state.add_write(version) == [version]  # its own ack completes it

    def test_write_of_an_already_stable_transaction_never_pends(self):
        """The caller installs it straight into good instead."""
        state = mav_state()
        ts = Timestamp(3, 1)
        assert state.record_acks([(ts, THERE, "x", 2), (ts, HERE, "x", 2)]) == []
        assert state.is_stable(ts)
        assert state.add_write(mav_write("x", 1, 3, {"x"})) is None
        assert state.pending_count() == 0
        assert state.owed == {}

    def test_read_pending_exact_timestamp(self):
        state = mav_state()
        ts = Timestamp(2, 1)
        version = mav_write("x", "pending-value", 2, {"x", "y"})
        state.add_write(version)
        assert state.read_pending("x", ts) is version
        assert state.read_pending("x", Timestamp(9, 9)) is None
        assert state.read_pending("unknown", ts) is None
        assert state.stats.pending_reads == 3

    def test_stable_versions_leave_pending(self):
        """A stable write is served from good, never from pending."""
        state = mav_state()
        state.add_write(mav_write("x", "newer", 5, {"x"}))
        state.record_acks([(Timestamp(5, 1), THERE, "x", 2)])
        assert state.read_pending("x", Timestamp(5, 1)) is None
        assert state.read_pending("x", Timestamp(2, 1)) is None

    def test_tracked_transactions(self):
        state = mav_state()
        state.add_write(mav_write("x", 1, 1, {"x"}))
        state.add_write(mav_write("y", 1, 2, {"y"}))
        assert state.tracked_transactions() == 2
