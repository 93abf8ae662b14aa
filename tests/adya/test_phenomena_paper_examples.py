"""The paper's example histories, checked against the phenomenon detectors.

Each test transcribes one of the example histories from Section 5 or the
figures of Appendix A and asserts that exactly the intended anomaly is
detected (and that the corresponding isolation level flags it).
"""

from repro.adya.history import HistoryBuilder
from repro.adya.levels import check_history
from repro.adya.phenomena import (
    G0,
    G1A,
    G1B,
    G1C,
    IMP,
    LOST_UPDATE,
    MRWD,
    MYR,
    N_MR,
    N_MW,
    OTV,
    PMP,
    WRITE_SKEW,
    detect,
)


class TestDirtyReadExamples:
    """Section 5.1.1's Read Committed examples (G1a / G1b)."""

    def test_aborted_read_g1a(self):
        # T2: w_x(3) aborts; T3 must not read x = 3.
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1).write("x", 2)
        t2 = builder.transaction()
        t2.write("x", 3).abort()
        t3 = builder.transaction()
        t3.read("x", from_txn=t2.txn_id, value=3)
        history = builder.build()
        assert detect(history, G1A)
        assert not check_history(history, "RC").satisfied
        assert check_history(history, "RU").satisfied

    def test_intermediate_read_g1b(self):
        # T3 must never see a = 1 (T1's intermediate write).
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1).write("x", 2)
        t3 = builder.transaction()
        t3.read("x", from_txn=t1.txn_id, value=1)
        history = builder.build()
        assert detect(history, G1B)
        assert not check_history(history, "RC").satisfied

    def test_clean_read_committed_history(self):
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1).write("x", 2)
        t3 = builder.transaction()
        t3.read("x", from_txn=t1.txn_id, value=2)  # final write only
        history = builder.build()
        assert not detect(history, G1A)
        assert not detect(history, G1B)
        assert check_history(history, "RC").satisfied


class TestDependencyCycleExamples:
    """Definitions 17 and 20: the cycle detectors under RU and RC."""

    def test_dirty_write_g0(self):
        # T1 and T2 both write x and y; the replicas install them in
        # opposite orders, so neither transaction's writes come "first".
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1).write("y", 1)
        t2 = builder.transaction()
        t2.write("x", 2).write("y", 2)
        builder.version_order("x", t1.txn_id, t2.txn_id)
        builder.version_order("y", t2.txn_id, t1.txn_id)
        history = builder.build()
        witness, = detect(history, G0)
        assert witness.transactions == [t1.txn_id, t2.txn_id]
        assert "write-dependency cycle" in witness.description
        assert not check_history(history, "RU").satisfied
        assert not check_history(history, "RC").satisfied

    def test_consistent_install_order_is_not_g0(self):
        # Same writes, one install order on both items (last writer wins).
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1).write("y", 1)
        t2 = builder.transaction()
        t2.write("x", 2).write("y", 2)
        history = builder.build()
        assert not detect(history, G0)
        assert not detect(history, G1C)
        assert check_history(history, "RU").satisfied

    def test_circular_information_flow_g1c(self):
        # T1 reads T2's y and T2 reads T1's x: each depends on the other.
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t2 = builder.transaction()
        t1.write("x", 1).read("y", from_txn=t2.txn_id, value=2)
        t2.write("y", 2).read("x", from_txn=t1.txn_id, value=1)
        history = builder.build()
        witness, = detect(history, G1C)
        assert witness.transactions == [t1.txn_id, t2.txn_id]
        assert not detect(history, G0)  # no write-write edge in the cycle
        assert check_history(history, "RU").satisfied
        assert not check_history(history, "RC").satisfied
        assert not check_history(history, "MAV").satisfied

    def test_one_way_information_flow_is_not_g1c(self):
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1)
        t2 = builder.transaction()
        t2.write("y", 2).read("x", from_txn=t1.txn_id, value=1)
        history = builder.build()
        assert not detect(history, G1C)
        assert check_history(history, "RC").satisfied


class TestCutIsolationExamples:
    def test_figure_7_imp_anomaly(self):
        # T3 reads x = 1 (from T1) and then x = 2 (from T2).
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1)
        t2 = builder.transaction()
        t2.write("x", 2)
        t3 = builder.transaction()
        t3.read("x", from_txn=t1.txn_id, value=1)
        t3.read("x", from_txn=t2.txn_id, value=2)
        history = builder.build()
        assert detect(history, IMP)
        assert not check_history(history, "I-CI").satisfied

    def test_item_cut_isolation_satisfied_when_value_stable(self):
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1)
        t3 = builder.transaction()
        t3.read("x", from_txn=t1.txn_id, value=1)
        t3.read("x", from_txn=t1.txn_id, value=1)
        history = builder.build()
        assert not detect(history, IMP)
        assert check_history(history, "I-CI").satisfied

    def test_predicate_many_preceders_pmp(self):
        # T3 evaluates "dept = sales" twice: the first evaluation matches
        # T1's version of x, the second T2's.
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", "sales")
        t2 = builder.transaction()
        t2.write("x", "sales-emea")
        t3 = builder.transaction()
        t3.scan("dept=sales", [("x", t1.txn_id, "sales")])
        t3.scan("dept=sales", [("x", t2.txn_id, "sales-emea")])
        history = builder.build()
        witness, = detect(history, PMP)
        assert witness.transactions == [t3.txn_id]
        assert "'dept=sales'" in witness.description
        assert not check_history(history, "P-CI").satisfied

    def test_predicate_cut_isolation_satisfied_when_matches_are_stable(self):
        # Two evaluations, same matches; a different predicate in between
        # and an item read of the same key do not count against it.
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", "sales")
        t2 = builder.transaction()
        t2.write("y", "ops")
        t3 = builder.transaction()
        t3.scan("dept=sales", [("x", t1.txn_id, "sales")])
        t3.scan("dept=ops", [("y", t2.txn_id, "ops")])
        t3.read("x", from_txn=t1.txn_id, value="sales")
        t3.scan("dept=sales", [("x", t1.txn_id, "sales")])
        history = builder.build()
        assert not detect(history, PMP)
        assert check_history(history, "P-CI").satisfied

    def test_one_evaluation_matching_two_items_is_not_pmp(self):
        # T3 evaluates "dept=sales" once; it matches x (from T1) and y (from
        # T2).  One evaluation cannot disagree with itself.
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", "sales")
        t2 = builder.transaction()
        t2.write("y", "sales")
        t3 = builder.transaction()
        t3.scan("dept=sales", [("x", t1.txn_id, "sales"), ("y", t2.txn_id, "sales")])
        history = builder.build()
        assert not detect(history, PMP)
        assert check_history(history, "P-CI").satisfied


class TestMAVExamples:
    def test_figure_9_otv_anomaly(self):
        # T3 reads x = 2 (T2's write) but then y = 1 (T1's, older than T2's).
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1).write("y", 1)
        t2 = builder.transaction()
        t2.write("x", 2).write("y", 2)
        t3 = builder.transaction()
        t3.read("x", from_txn=t2.txn_id, value=2)
        t3.read("y", from_txn=t1.txn_id, value=1)
        history = builder.build()
        assert detect(history, OTV)
        assert not check_history(history, "MAV").satisfied

    def test_section_512_mav_example_satisfied(self):
        # T2 reads T1's y, then must observe T1's x and z as well.
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1).write("y", 1).write("z", 1)
        t2 = builder.transaction()
        t2.read("x", from_txn=None, value=None)
        t2.read("y", from_txn=t1.txn_id, value=1)
        t2.read("x", from_txn=t1.txn_id, value=1)
        t2.read("z", from_txn=t1.txn_id, value=1)
        history = builder.build()
        assert not detect(history, OTV)
        assert check_history(history, "MAV").satisfied

    def test_mav_violation_when_later_read_misses_effects(self):
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1).write("y", 1).write("z", 1)
        t2 = builder.transaction()
        t2.read("y", from_txn=t1.txn_id, value=1)
        t2.read("z", from_txn=None, value=None)  # misses T1's z after seeing y
        history = builder.build()
        assert detect(history, OTV)


class TestUnachievableAnomalies:
    def test_section_521_lost_update(self):
        # T1: r_x(100) w_x(120); T2: r_x(100) w_x(130) on opposite partition sides.
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.read("x", from_txn=None, value=100).write("x", 120)
        t2 = builder.transaction()
        t2.read("x", from_txn=None, value=100).write("x", 130)
        history = builder.build()
        assert detect(history, LOST_UPDATE)
        assert detect(history, WRITE_SKEW)  # lost update is a special case
        assert not check_history(history, "SI").satisfied
        assert not check_history(history, "1SR").satisfied
        # ...but every HAT level tolerates it:
        assert check_history(history, "RC").satisfied
        assert check_history(history, "MAV").satisfied

    def test_section_521_write_skew(self):
        # T1: r_y(0) w_x(1); T2: r_x(0) w_y(1).
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.read("y", from_txn=None, value=0).write("x", 1)
        t2 = builder.transaction()
        t2.read("x", from_txn=None, value=0).write("y", 1)
        history = builder.build()
        assert detect(history, WRITE_SKEW)
        assert not detect(history, LOST_UPDATE)  # multi-item, not single-item
        assert not check_history(history, "RR").satisfied
        assert not check_history(history, "1SR").satisfied
        assert check_history(history, "SI").satisfied  # SI famously allows write skew


class TestSessionGuaranteeExamples:
    def test_figure_11_non_monotonic_reads(self):
        # Session reads x = 2 then x = 1 where w_x(1) << w_x(2).
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1)
        t2 = builder.transaction()
        t2.write("x", 2)
        t3 = builder.transaction(session=1)
        t3.read("x", from_txn=t2.txn_id, value=2)
        t4 = builder.transaction(session=1)
        t4.read("x", from_txn=t1.txn_id, value=1)
        history = builder.build()
        assert detect(history, N_MR)
        assert not check_history(history, "MR").satisfied
        assert not check_history(history, "PRAM").satisfied

    def test_figure_13_non_monotonic_writes(self):
        # Session writes x (T1) then y (T2); T3 sees y but an x older than T1's.
        builder = HistoryBuilder()
        t1 = builder.transaction(session=1)
        t1.write("x", 1)
        t2 = builder.transaction(session=1)
        t2.write("x", 2)
        builder.version_order("x", t2.txn_id, t1.txn_id)  # installed out of order
        history = builder.build()
        assert detect(history, N_MW)
        assert not check_history(history, "MW").satisfied

    def test_figure_15_writes_follow_reads_violation(self):
        # T2 reads T1's x then writes y; T3 reads T2's y but misses T1's x.
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1)
        t2 = builder.transaction()
        t2.read("x", from_txn=t1.txn_id, value=1).write("y", 1)
        t3 = builder.transaction()
        t3.read("y", from_txn=t2.txn_id, value=1)
        t3.read("x", from_txn=None, value=0)
        history = builder.build()
        assert detect(history, MRWD)
        assert not check_history(history, "WFR").satisfied
        assert not check_history(history, "Causal").satisfied

    def test_figure_17_missing_your_writes(self):
        # A session writes x = 1 and then reads x = 0 (the initial version).
        builder = HistoryBuilder()
        t1 = builder.transaction(session=1)
        t1.write("x", 1)
        t2 = builder.transaction(session=1)
        t2.read("x", from_txn=None, value=0)
        history = builder.build()
        assert detect(history, MYR)
        assert not check_history(history, "RYW").satisfied
        assert not check_history(history, "PRAM").satisfied
        assert not check_history(history, "Causal").satisfied

    def test_well_behaved_session_satisfies_everything(self):
        builder = HistoryBuilder()
        t1 = builder.transaction(session=1)
        t1.write("x", 1)
        t2 = builder.transaction(session=1)
        t2.read("x", from_txn=t1.txn_id, value=1).write("y", 1)
        t3 = builder.transaction(session=1)
        t3.read("y", from_txn=t2.txn_id, value=1)
        history = builder.build()
        for level in ("MR", "MW", "RYW", "WFR", "PRAM", "Causal"):
            assert check_history(history, level).satisfied, level
