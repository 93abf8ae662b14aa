"""Property-based tests for histories and phenomenon detectors.

The key invariants: serial histories (each transaction reads only from the
most recently committed writer, in commit order) never exhibit any anomaly;
detectors never crash on arbitrary well-formed histories; and every cycle
witness is a real cycle of the DSG, one per component a brute-force
transitive closure finds.
"""

from hypothesis import given, settings, strategies as st

from repro.adya.graphs import (MAX_WITNESSES, RW, WR, WW, build_dsg,
                               cycles_by_item, cycles_with)
from repro.adya.history import (History, HistoryBuilder, HistoryRecorder,
                                HistoryTransaction, ReadEvent, WriteEvent)
from repro.adya.levels import CHECKABLE, check_all_levels, check_history
from repro.adya.phenomena import (G0, G1C, LOST_UPDATE, PHENOMENA, WRITE_SKEW,
                                  detect, detect_each)
from repro.hat.transaction import (Operation, ReadObservation, Transaction,
                                   TransactionResult)
from repro.storage.records import NULL_TIMESTAMP, Timestamp, Version

KEYS = ["x", "y", "z"]


@st.composite
def serial_histories(draw):
    """Generate a serial, single-copy history: transactions run one at a
    time; reads observe the latest committed writer of the key."""
    builder = HistoryBuilder()
    latest_writer = {}
    transaction_count = draw(st.integers(min_value=1, max_value=8))
    for _ in range(transaction_count):
        session = draw(st.integers(min_value=1, max_value=3))
        txn = builder.transaction(session=session)
        op_count = draw(st.integers(min_value=1, max_value=4))
        writes = {}
        for _ in range(op_count):
            key = draw(st.sampled_from(KEYS))
            if draw(st.booleans()):
                value = draw(st.integers(min_value=0, max_value=100))
                txn.write(key, value)
                writes[key] = value
            else:
                if key in writes:
                    txn.read(key, from_txn=txn.txn_id, value=writes[key])
                else:
                    writer, value = latest_writer.get(key, (None, None))
                    txn.read(key, from_txn=writer, value=value)
        for key, value in writes.items():
            latest_writer[key] = (txn.txn_id, value)
    return builder.build()


@st.composite
def arbitrary_histories(draw):
    """Generate arbitrary (possibly anomalous) well-formed histories."""
    builder = HistoryBuilder()
    transaction_count = draw(st.integers(min_value=1, max_value=6))
    handles = []
    for _ in range(transaction_count):
        session = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=2)))
        txn = builder.transaction(session=session)
        handles.append(txn)
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            key = draw(st.sampled_from(KEYS))
            if draw(st.booleans()):
                txn.write(key, draw(st.integers(min_value=0, max_value=9)))
            else:
                source = draw(st.one_of(
                    st.none(), st.sampled_from([h.txn_id for h in handles])))
                txn.read(key, from_txn=source, value=None)
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            txn.abort()
    return builder.build()


class TestSerialHistoriesAreClean:
    @given(serial_histories())
    @settings(max_examples=50, deadline=None)
    def test_serial_histories_satisfy_every_level(self, history):
        for name in CHECKABLE:
            report = check_history(history, name)
            assert report.satisfied, f"{name} violated in a serial history:\n{report}"


class TestDetectorRobustness:
    @given(arbitrary_histories())
    @settings(max_examples=50, deadline=None)
    def test_detectors_never_crash(self, history):
        for name in PHENOMENA:
            for witness in detect(history, name):
                assert witness.phenomenon == name
                assert witness.transactions

    @given(arbitrary_histories())
    @settings(max_examples=50, deadline=None)
    def test_stronger_levels_flag_supersets_of_weaker_levels(self, history):
        """If a weaker level is violated, every stronger level (by prohibited-
        phenomena inclusion) is violated too."""
        reports = {name: check_history(history, name) for name in CHECKABLE}
        for weak_name, weak in CHECKABLE.items():
            for strong_name, strong in CHECKABLE.items():
                if weak.prohibits <= strong.prohibits and not reports[weak_name].satisfied:
                    assert not reports[strong_name].satisfied

    @given(arbitrary_histories())
    @settings(max_examples=50, deadline=None)
    def test_the_one_pass_reports_what_each_level_checked_alone_does(self, history):
        assert check_all_levels(history) == {
            name: check_history(history, name) for name in CHECKABLE}


@st.composite
def histories_with_overridden_orders(draw):
    """An arbitrary history, some version orders then overridden by hand —
    shuffled, truncated or with a writer named twice."""
    history = draw(arbitrary_histories())
    writers = sorted(history.transactions)
    for key in draw(st.sets(st.sampled_from(KEYS))):
        history.set_version_order(key, draw(st.lists(st.sampled_from(writers),
                                                     max_size=6)))
    return history


# -- cycle witnesses against a brute-force closure ------------------------------

#: Each cycle search the detectors run: (allowed kinds, required kinds).
CYCLE_SEARCHES = {G0: ({WW}, None), G1C: ({WW, WR}, None),
                  WRITE_SKEW: ({WW, WR, RW}, {RW}), LOST_UPDATE: ({WW, WR, RW}, {RW})}


def _closure_count(edges, required_kinds):
    """Components holding a qualifying edge, by Warshall's transitive closure."""
    nodes = {edge.src for edge in edges} | {edge.dst for edge in edges}
    reach = {node: {edge.dst for edge in edges if edge.src == node} for node in nodes}
    for via in nodes:
        for node in nodes:
            if via in reach[node]:
                reach[node] |= reach[via]
    components = {frozenset({edge.src} | {other for other in reach[edge.src]
                                          if edge.src in reach[other]})
                  for edge in edges
                  if edge.src in reach[edge.dst]
                  and (required_kinds is None or edge.kind in required_kinds)}
    return min(MAX_WITNESSES, len(components))


@given(histories_with_overridden_orders())
@settings(max_examples=200, deadline=None)
def test_every_cycle_witness_is_a_dsg_cycle_one_per_component(history):
    dsg = build_dsg(history)
    found = detect_each(history)
    for name, (allowed, required) in CYCLE_SEARCHES.items():
        if name == LOST_UPDATE:
            searches = [(item, [edge for edge in dsg if edge.item == item], cycles)
                        for item, cycles in cycles_by_item(dsg, sorted(history.version_order),
                                                           allowed, required)]
        else:
            searches = [(None, dsg, cycles_with(dsg, allowed, required))]
        for item, edges, cycles in searches:
            for cycle in cycles:
                assert all(edge.dst == after.src
                           for edge, after in zip(cycle, cycle[1:] + cycle[:1]))
                assert all(edge in dsg and edge.kind in allowed for edge in cycle)
                assert required is None or any(edge.kind in required for edge in cycle)
                assert item is None or all(edge.item == item for edge in cycle)
            allowed_edges = [edge for edge in edges if edge.kind in allowed]
            assert len(cycles) == _closure_count(allowed_edges, required)
        assert len(found[name]) == sum(len(cycles) for _, _, cycles in searches)


@settings(max_examples=100, deadline=None)
@given(history=histories_with_overridden_orders(), data=st.data())
def test_version_position_answers_what_list_index_does(history, data):
    def by_index(key, txn_id):
        order = history.version_order.get(key, [])
        return order.index(txn_id) if txn_id in order else -1

    candidates = [None, 99, *history.transactions]
    for key in [*KEYS, "never-written"]:
        for txn_id in candidates:
            assert history.version_position(key, txn_id) == by_index(key, txn_id)
    # Both mutators drop what was answered from.
    key = data.draw(st.sampled_from(KEYS))
    history.set_version_order(
        key, list(reversed(history.version_order.get(key, []))))
    late = HistoryTransaction(txn_id=98, writes=[WriteEvent(key)])
    history.add_transaction(late)
    for txn_id in [*candidates, 98]:
        assert history.version_position(key, txn_id) == by_index(key, txn_id)


# -- HistoryRecorder.build against the two-pass build it replaced ---------------

def _two_pass_build(recorded):
    """The recorder's build as it was: every transaction through
    ``History.add_transaction`` (version orders in commit order), then each
    key with a timestamped writer overridden by the timestamp sort."""
    history = History()
    timestamps = {}
    for transaction, result in sorted(recorded, key=lambda pair: pair[1].end_ms):
        txn = HistoryTransaction(txn_id=result.txn_id, committed=result.committed,
                                 session_id=result.session_id,
                                 label=transaction.label)
        index = 0
        for observation in result.reads:
            txn.reads.append(ReadEvent(
                key=observation.key, writer_txn=observation.version.txn_id,
                value=observation.version.value, index=index))
            index += 1
        if result.committed:
            for key, value in result.writes.items():
                txn.writes.append(WriteEvent(key=key, value=value, index=index))
                index += 1
                if result.timestamp is not None:
                    timestamps.setdefault(key, []).append(
                        (result.timestamp, result.txn_id))
        history.add_transaction(txn)
    for key, entries in timestamps.items():
        entries.sort(key=lambda pair: pair[0])
        history.set_version_order(key, [txn_id for _, txn_id in entries])
    return history


@st.composite
def recorded_runs(draw):
    """What clients hand a recorder: results in any completion order, commit
    timestamps that may tie, repeat out of order, or be missing."""
    recorded = []
    for txn_id in range(1, draw(st.integers(1, 12)) + 1):
        timestamp = draw(st.one_of(
            st.none(), st.builds(Timestamp, st.integers(0, 4), st.integers(1, 3))))
        reads = [ReadObservation(key, Version(key, value, NULL_TIMESTAMP, writer))
                 for key, value, writer in draw(st.lists(st.tuples(
                     st.sampled_from(KEYS), st.integers(0, 9),
                     st.one_of(st.none(), st.integers(1, 12))), max_size=3))]
        writes = draw(st.dictionaries(st.sampled_from(KEYS), st.integers(0, 9),
                                      max_size=3))
        result = TransactionResult(
            txn_id, draw(st.booleans()), "eventual", timestamp=timestamp,
            session_id=draw(st.integers(1, 3)), reads=reads, writes=writes,
            end_ms=float(draw(st.integers(0, 6))))
        transaction = Transaction([Operation.read("x")], txn_id=txn_id,
                                  label=draw(st.sampled_from([None, "payment"])))
        recorded.append((transaction, result))
    return recorded


@settings(max_examples=200, deadline=None)
@given(recorded=recorded_runs())
def test_recorder_builds_the_history_the_two_pass_build_did(recorded):
    recorder = HistoryRecorder()
    for transaction, result in recorded:
        recorder.record(transaction, result)
    built, expected = recorder.build(), _two_pass_build(recorded)
    assert built.transactions == expected.transactions
    assert list(built.transactions) == list(expected.transactions)
    assert built.version_order == expected.version_order
    assert list(built.version_order) == list(expected.version_order)
