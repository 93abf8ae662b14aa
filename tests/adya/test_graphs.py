"""Unit tests for DSG construction."""

from repro.adya.graphs import RW, WR, WW, build_dsg, cycles_by_item, cycles_with
from repro.adya.history import HistoryBuilder


def edge_kinds(dsg, src, dst):
    return {edge.kind for edge in dsg if (edge.src, edge.dst) == (src, dst)}


class TestBuildDSG:
    def test_write_dependency_follows_version_order(self):
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1)
        t2 = builder.transaction()
        t2.write("x", 2)
        dsg = build_dsg(builder.build())
        assert WW in edge_kinds(dsg, t1.txn_id, t2.txn_id)
        assert not edge_kinds(dsg, t2.txn_id, t1.txn_id)

    def test_read_dependency(self):
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1)
        t2 = builder.transaction()
        t2.read("x", from_txn=t1.txn_id, value=1)
        dsg = build_dsg(builder.build())
        assert WR in edge_kinds(dsg, t1.txn_id, t2.txn_id)

    def test_anti_dependency(self):
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.read("x", from_txn=None)          # reads the initial version
        t2 = builder.transaction()
        t2.write("x", 2)                     # installs the next version
        dsg = build_dsg(builder.build())
        assert RW in edge_kinds(dsg, t1.txn_id, t2.txn_id)

    def test_aborted_transactions_excluded(self):
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1).abort()
        t2 = builder.transaction()
        t2.write("x", 2)
        dsg = build_dsg(builder.build())
        assert all(t1.txn_id not in (edge.src, edge.dst) for edge in dsg)


class TestCycleSearch:
    def test_detects_ww_cycle_with_explicit_version_order(self):
        # T1 and T2 both write x and y, with opposite installation orders:
        # a G0 (dirty write) cycle.
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1).write("y", 1)
        t2 = builder.transaction()
        t2.write("x", 2).write("y", 2)
        builder.version_order("x", t1.txn_id, t2.txn_id)
        builder.version_order("y", t2.txn_id, t1.txn_id)
        cycles = cycles_with(build_dsg(builder.build()), allowed_kinds={WW})
        assert cycles, "expected a write-dependency cycle"

    def test_no_cycle_in_serial_history(self):
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.write("x", 1)
        t2 = builder.transaction()
        t2.read("x", from_txn=t1.txn_id)
        t2.write("x", 2)
        assert cycles_with(build_dsg(builder.build()), allowed_kinds={WW, WR, RW}) == []

    def test_required_kind_filter(self):
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.read("x", from_txn=None).write("y", 1)
        t2 = builder.transaction()
        t2.read("y", from_txn=None).write("x", 1)
        dsg = build_dsg(builder.build())
        with_rw = cycles_with(dsg, allowed_kinds={WW, WR, RW}, required_kinds={RW})
        only_ww = cycles_with(dsg, allowed_kinds={WW})
        assert with_rw and not only_ww

    def test_item_filter(self):
        # Lost update on x: both read initial x, both write x.
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.read("x", from_txn=None).write("x", 1)
        t2 = builder.transaction()
        t2.read("x", from_txn=None).write("x", 2)
        per_item = dict(cycles_by_item(build_dsg(builder.build()), ["x", "y"],
                                       allowed_kinds={WW, WR, RW}, required_kinds={RW}))
        assert per_item["x"] and not per_item["y"]
