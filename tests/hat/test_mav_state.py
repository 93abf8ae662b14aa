"""Unit tests for the MAV pending/good/acknowledgement state machine."""

from repro.hat.mav_state import MAVState
from repro.storage.records import Timestamp, Version


def mav_write(key, value, seq, siblings):
    return Version(key=key, value=value, timestamp=Timestamp(seq, 1),
                   txn_id=seq, siblings=frozenset(siblings))


class TestMAVState:
    def test_add_write_dedupes(self):
        state = MAVState(replication_factor=2)
        version = mav_write("x", 1, 1, {"x", "y"})
        assert state.add_write(version) is True
        assert state.add_write(version) is False
        assert state.pending_count() == 1

    def test_expected_acks_is_siblings_times_replicas(self):
        state = MAVState(replication_factor=3)
        state.add_write(mav_write("x", 1, 1, {"x", "y"}))
        entry = state._pending[Timestamp(1, 1)]
        assert entry.expected_acks == 6

    def test_last_distinct_ack_hands_over_the_writes(self):
        state = MAVState(replication_factor=2)
        ts = Timestamp(1, 1)
        version = mav_write("x", 1, 1, {"x", "y"})
        state.add_write(version)
        assert not state.is_stable(ts)
        assert state.record_ack(ts, "r1", "x", expected_acks=4) == []
        assert state.record_ack(ts, "r2", "x", expected_acks=4) == []
        assert state.record_ack(ts, "r1", "y", expected_acks=4) == []
        assert not state.is_stable(ts)
        assert state.record_ack(ts, "r2", "y", expected_acks=4) == [version]
        assert state.is_stable(ts)
        assert state.pending_count() == 0
        assert state.stats.promoted == 1

    def test_duplicate_acks_do_not_double_count(self):
        state = MAVState(replication_factor=2)
        ts = Timestamp(1, 1)
        state.add_write(mav_write("x", 1, 1, {"x"}))
        for _ in range(5):
            assert state.record_ack(ts, "r1", "x", expected_acks=2) == []
        assert not state.is_stable(ts)

    def test_acks_after_stability_promote_nothing(self):
        """Only the transition to stable hands writes over, and only once."""
        state = MAVState(replication_factor=1)
        ts = Timestamp(1, 1)
        version = mav_write("x", 1, 1, {"x"})
        state.add_write(version)
        assert state.record_ack(ts, "r1", "x", expected_acks=1) == [version]
        assert state.record_ack(ts, "r1", "x", expected_acks=1) == []
        assert state.record_ack(ts, "r9", "x", expected_acks=1) == []
        assert state.stats.promoted == 1
        assert state.tracked_transactions() == 0

    def test_stable_transaction_keeps_only_its_timestamp(self):
        state = MAVState(replication_factor=1)
        ts = Timestamp(1, 1)
        state.add_write(mav_write("x", 1, 1, {"x", "y"}))
        state.add_write(mav_write("y", 1, 1, {"x", "y"}))
        assert state.tracked_transactions() == 1
        state.record_ack(ts, "r1", "x", expected_acks=2)
        assert len(state.record_ack(ts, "r1", "y", expected_acks=2)) == 2
        assert state.tracked_transactions() == 0
        assert state.pending_count() == 0
        assert state._pending_by_key == {}
        assert state.stable_count() == 1

    def test_acks_arriving_before_write(self):
        """Acknowledgements may arrive before the anti-entropied write does."""
        state = MAVState(replication_factor=1)
        ts = Timestamp(3, 1)
        state.record_ack(ts, "r1", "x", expected_acks=2)
        assert state.tracked_transactions() == 1
        version = mav_write("x", 1, 3, {"x", "y"})
        assert state.add_write(version) is True
        assert state.record_ack(ts, "r1", "y", expected_acks=2) == [version]

    def test_write_of_an_already_stable_transaction_never_pends(self):
        """The caller installs it straight into good instead."""
        state = MAVState(replication_factor=1)
        ts = Timestamp(3, 1)
        state.record_ack(ts, "r1", "x", expected_acks=2)
        assert state.record_ack(ts, "r1", "y", expected_acks=2) == []
        assert state.is_stable(ts)
        assert state.add_write(mav_write("x", 1, 3, {"x", "y"})) is False
        assert state.pending_count() == 0
        assert state._pending_by_key == {}

    def test_read_pending_exact_timestamp(self):
        state = MAVState(replication_factor=2)
        ts = Timestamp(2, 1)
        version = mav_write("x", "pending-value", 2, {"x", "y"})
        state.add_write(version)
        assert state.read_pending("x", ts) is version
        assert state.read_pending("x", Timestamp(9, 9)) is None
        assert state.read_pending("unknown", ts) is None
        assert state.stats.pending_reads == 3

    def test_stable_versions_leave_pending(self):
        """A stable write is served from good, never from pending."""
        state = MAVState(replication_factor=1)
        state.add_write(mav_write("x", "newer", 5, {"x"}))
        state.record_ack(Timestamp(5, 1), "r1", "x", expected_acks=1)
        assert state.read_pending("x", Timestamp(5, 1)) is None
        assert state.read_pending("x", Timestamp(2, 1)) is None

    def test_tracked_transactions(self):
        state = MAVState(replication_factor=1)
        state.add_write(mav_write("x", 1, 1, {"x"}))
        state.add_write(mav_write("y", 1, 2, {"y"}))
        assert state.tracked_transactions() == 2
