"""What the Adya checker reports, pinned across rewrites of the DSG.

Two kinds of history are pinned:

* the 36 histories the unit tests of ``test_phenomena_paper_examples.py``,
  ``test_graphs.py`` and ``test_history.py`` built when the pin was taken,
  kept here as data so the pin outlives edits to those tests;
* one short recorded ``eventual`` run, with transaction ids renumbered in
  commit order (the simulator draws them from a process-wide counter).

For each: every level's ``satisfied``, every phenomenon's witness count, and
a SHA-256 of the witness text of the detectors that search no cycle.  The
text of the four cycle witnesses is pinned apart, by SHA-256: which cycle
represents a component is a rule of ``repro.adya.graphs``, not of Adya.
Re-pin with ``PYTHONPATH=src python tests/adya/test_checker_pin.py``.
"""

import hashlib
import itertools
import json
from pathlib import Path

from repro.adya.history import History, HistoryRecorder, HistoryTransaction, ReadEvent, WriteEvent
from repro.adya.levels import check_all_levels
from repro.adya.phenomena import G0, G1C, LOST_UPDATE, WRITE_SKEW, detect_each
from repro.bench.runner import RunConfig, run_workload
from repro.cluster import client as client_module
from repro.hat.testbed import Scenario
from repro.workloads.ycsb import YCSBConfig

PIN = Path(__file__).resolve().parent.parent / "data" / "golden_checker_pin.json"
CYCLE_DETECTORS = (G0, G1C, LOST_UPDATE, WRITE_SKEW)
RECORDED = "recorded eventual, VA+OR x 2 servers, 50 keys, 4 clients/cluster, seed 1, 300 ms"


def history_from(data) -> History:
    """A history from its pinned form, added in the order it was built."""
    history = History()
    for txn_id, committed, session_id, reads, writes in data["transactions"]:
        history.add_transaction(HistoryTransaction(
            txn_id, committed, session_id,
            [ReadEvent(*read) for read in reads],
            [WriteEvent(*write) for write in writes]))
    for key, order in data["version_order"].items():
        history.set_version_order(key, order)
    return history


def pinned_form(history: History):
    """``history`` in the pinned form, every id renumbered by first mention."""
    ids = {}

    def renumber(txn_id):
        return None if txn_id is None else ids.setdefault(txn_id, len(ids) + 1)

    for txn_id in history.transactions:
        renumber(txn_id)
    return {
        "transactions": [
            [renumber(t.txn_id), t.committed, t.session_id,
             [[r.key, renumber(r.writer_txn), r.value, r.index, r.predicate]
              for r in t.reads],
             [[w.key, w.value, w.index] for w in t.writes]]
            for t in history.transactions.values()],
        "version_order": {key: [renumber(txn_id) for txn_id in order]
                          for key, order in history.version_order.items()},
    }


def recorded_history() -> History:
    """A 300 ms ``eventual`` run on 50 contended keys (326 transactions)."""
    ids, client_module._CLIENT_IDS = client_module._CLIENT_IDS, itertools.count(1)
    try:
        recorder = HistoryRecorder()
        run_workload(RunConfig(
            "eventual", Scenario(regions=["VA", "OR"], servers_per_cluster=2, seed=1),
            YCSBConfig(key_count=50), clients_per_cluster=4, seed=1,
            duration_ms=300.0), recorder=recorder)
    finally:
        client_module._CLIENT_IDS = ids
    return history_from(pinned_form(recorder.build()))


def _sha(found, phenomena) -> str:
    text = "\n".join(f"{name}: {witness}" for name in phenomena
                     for witness in found[name])
    return hashlib.sha256(text.encode()).hexdigest()


def verdicts(history: History):
    """Levels satisfied, witness counts, and the non-cycle witness text's SHA."""
    found = detect_each(history)
    return {
        "satisfied": {code: report.satisfied
                      for code, report in check_all_levels(history).items()},
        "witnesses": {name: len(witnesses) for name, witnesses in found.items()},
        "other_text_sha256": _sha(found, [name for name in found
                                          if name not in CYCLE_DETECTORS]),
    }


def cycle_text_sha256(history: History) -> str:
    return _sha(detect_each(history, CYCLE_DETECTORS), CYCLE_DETECTORS)


def _pinned_histories(pin):
    yield from ((entry["name"], history_from(entry)) for entry in pin["histories"])
    yield RECORDED, recorded_history()


def test_every_pinned_history_keeps_its_verdicts_counts_and_text():
    pin = json.loads(PIN.read_text())
    assert len(pin["histories"]) == 36
    moved = {name: verdicts(history) for name, history in _pinned_histories(pin)}
    moved = {name: got for name, got in moved.items()
             if got != pin["verdicts"][name]}
    assert moved == {}


def test_every_pinned_history_keeps_its_cycle_witness_text():
    pin = json.loads(PIN.read_text())
    assert {name: cycle_text_sha256(history) for name, history
            in _pinned_histories(pin)} == pin["cycle_text"]["sha256"]


def test_the_recorded_history_exercises_every_cycle_detector_below_the_cap():
    counts = json.loads(PIN.read_text())["verdicts"][RECORDED]["witnesses"]
    assert all(0 < counts[name] < 25 for name in (G1C, LOST_UPDATE, WRITE_SKEW))


if __name__ == "__main__":
    pin = json.loads(PIN.read_text())
    histories = dict(_pinned_histories(pin))
    pin["verdicts"] = {name: verdicts(history) for name, history in histories.items()}
    pin["cycle_text"]["sha256"] = {name: cycle_text_sha256(history)
                                   for name, history in histories.items()}
    PIN.write_text(json.dumps(pin, indent=1) + "\n")
    print(f"re-pinned {PIN}")
