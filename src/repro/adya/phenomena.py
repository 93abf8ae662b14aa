"""Phenomenon detectors (paper Appendix A.3, Definitions 16-39).

Each detector returns the witnesses it finds in a
:class:`~repro.adya.history.History`, or in a pass over it that it shares,
built once per check: the DSG for the cycle-based phenomena (G0, G1c, Lost
Update, Write Skew), which follow Adya's serialization-graph definitions
directly, or one walk of each session's order for N-MR, N-MW and MYR.  The
session phenomena (MRWD from each writer's session-read prefix) and the
visibility ones use operational formulations equivalent to the paper's
definitions, which are easier to audit and robust on live runs' histories:

========  ====================================================================
G0        write-dependency cycle (Dirty Write)
G1a       a committed transaction read an aborted transaction's write
G1b       a committed transaction read an intermediate (non-final) write
G1c       cycle of write- and read-dependencies (Circular Information Flow)
IMP       a transaction read the same item from two different writers
PMP       two overlapping predicate reads in one transaction saw different
          writer sets
OTV       a transaction observed part of another transaction's effects and
          later missed the rest (Observed Transaction Vanishes)
N-MR      a later transaction in a session read an older version than an
          earlier one (non-monotonic reads)
N-MW      a session's writes were installed out of session order
          (non-monotonic writes)
MRWD      writes-follow-reads violated: a reader saw T2 (which read T1) but
          missed T1
MYR       a session failed to read its own earlier write
LOST      Lost Update: single-item cycle with an anti-dependency
WSKEW     Write Skew (Adya G2-item): any cycle with an anti-dependency
========  ====================================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.adya.graphs import RW, WR, WW, build_dsg, cycles_by_item, cycles_with
from repro.adya.history import History, INITIAL

G0 = "G0"
G1A = "G1a"
G1B = "G1b"
G1C = "G1c"
IMP = "IMP"
PMP = "PMP"
OTV = "OTV"
N_MR = "N-MR"
N_MW = "N-MW"
MRWD = "MRWD"
MYR = "MYR"
LOST_UPDATE = "LOST-UPDATE"
WRITE_SKEW = "WRITE-SKEW"


@dataclass
class Witness:
    """Evidence of one phenomenon occurrence."""

    phenomenon: str
    transactions: List[int]
    description: str

    def __str__(self) -> str:
        txns = ", ".join(f"T{t}" for t in self.transactions)
        return f"{self.phenomenon}({txns}): {self.description}"


@dataclass(frozen=True)
class Phenomenon:
    """A named anomaly plus its detector."""

    name: str
    description: str
    #: ``detector(history)``, or ``detector(on(history))``: ``on`` is a pass
    #: rows share (:func:`build_dsg`, :func:`walk_sessions`), built once per check.
    detector: Callable[[Any], List[Witness]]
    on: Optional[Callable[[History], Any]] = None


# ---------------------------------------------------------------------------
# Cycle-based detectors (over the history's DSG, built once by the caller)
# ---------------------------------------------------------------------------

def _cycle_witnesses(phenomenon: str, label: str, cycles) -> List[Witness]:
    return [Witness(phenomenon=phenomenon,
                    transactions=sorted({edge.src for edge in cycle}),
                    description=f"{label}: " + " ".join(map(str, cycle)))
            for cycle in cycles]


def detect_g0(dsg) -> List[Witness]:
    """Dirty Writes: a cycle made solely of write dependencies."""
    return _cycle_witnesses(G0, "write-dependency cycle",
                            cycles_with(dsg, allowed_kinds={WW}))


def detect_g1c(dsg) -> List[Witness]:
    """Circular Information Flow: cycle of write/read dependencies."""
    return _cycle_witnesses(G1C, "dependency cycle",
                            cycles_with(dsg, allowed_kinds={WW, WR}))


def detect_lost_update(dsg) -> List[Witness]:
    """Lost Update: a single-item cycle containing an anti-dependency."""
    per_item = cycles_by_item(dsg, sorted({edge.item for edge in dsg}),
                              allowed_kinds={WW, WR, RW}, required_kinds={RW})
    return [witness for key, cycles in per_item
            for witness in _cycle_witnesses(
                LOST_UPDATE, f"anti-dependency cycle on item {key!r}", cycles)]


def detect_write_skew(dsg) -> List[Witness]:
    """Write Skew (Adya G2-item): any cycle with an item anti-dependency."""
    return _cycle_witnesses(
        WRITE_SKEW, "anti-dependency cycle",
        cycles_with(dsg, allowed_kinds={WW, WR, RW}, required_kinds={RW}))


# ---------------------------------------------------------------------------
# Read-visibility detectors
# ---------------------------------------------------------------------------

def detect_g1a(history: History) -> List[Witness]:
    """Aborted Reads: a committed transaction observed an aborted write."""
    aborted_ids = {t.txn_id for t in history.aborted()}
    witnesses = []
    for transaction in history.committed():
        for read in transaction.reads:
            if read.writer_txn in aborted_ids:
                witnesses.append(Witness(
                    phenomenon=G1A,
                    transactions=[read.writer_txn, transaction.txn_id],
                    description=f"T{transaction.txn_id} read {read.key!r} "
                                f"written by aborted T{read.writer_txn}",
                ))
    return witnesses


def detect_g1b(history: History) -> List[Witness]:
    """Intermediate Reads: observed a non-final write of the writer."""
    witnesses = []
    for transaction in history.committed():
        for read in transaction.reads:
            writer_id = read.writer_txn
            if writer_id is INITIAL or writer_id not in history.transactions:
                continue
            if writer_id == transaction.txn_id:
                continue
            writer = history.transaction(writer_id)
            final = writer.final_write(read.key)
            if final is not None and read.value is not None and read.value != final.value:
                witnesses.append(Witness(
                    phenomenon=G1B,
                    transactions=[writer_id, transaction.txn_id],
                    description=f"T{transaction.txn_id} read intermediate value "
                                f"{read.value!r} of {read.key!r} from T{writer_id} "
                                f"(final value {final.value!r})",
                ))
    return witnesses


def detect_imp(history: History) -> List[Witness]:
    """Item-Many-Preceders: one transaction read an item from two writers."""
    witnesses = []
    for transaction in history.committed():
        writers_by_key: Dict[str, set] = {}
        for read in transaction.reads:
            if read.writer_txn == transaction.txn_id:
                continue
            writers_by_key.setdefault(read.key, set()).add(read.writer_txn)
        for key, writers in writers_by_key.items():
            if len(writers) > 1:
                witnesses.append(Witness(
                    phenomenon=IMP,
                    transactions=sorted(
                        [transaction.txn_id]
                        + [w for w in writers if w is not INITIAL]
                    ),
                    description=f"T{transaction.txn_id} read {key!r} from "
                                f"multiple writers: "
                                f"{sorted(str(w) for w in writers)}",
                ))
    return witnesses


def detect_pmp(history: History) -> List[Witness]:
    """Predicate-Many-Preceders: overlapping predicate reads saw different sets."""
    witnesses = []
    for transaction in history.committed():
        # Group observed writer sets per predicate evaluation: reads carrying
        # the same predicate and the same index belong to one evaluation.
        evaluations: Dict[str, Dict[int, set]] = {}
        for read in transaction.reads:
            if read.predicate is None:
                continue
            evaluations.setdefault(read.predicate, {}).setdefault(read.index, set()).add(
                (read.key, read.writer_txn)
            )
        for predicate, by_index in evaluations.items():
            observed_sets = [frozenset(s) for s in by_index.values()]
            if len(set(observed_sets)) > 1:
                witnesses.append(Witness(
                    phenomenon=PMP,
                    transactions=[transaction.txn_id],
                    description=f"T{transaction.txn_id} evaluated predicate "
                                f"{predicate!r} twice with different results",
                ))
    return witnesses


def detect_otv(history: History) -> List[Witness]:
    """Observed Transaction Vanishes (the anomaly MAV prohibits).

    Operationally: Tj observed some effect of Ti (read one of Ti's writes)
    and a *later* read in Tj of another item written by Ti returned a version
    older than Ti's write (Ti's effects "vanished" part-way through Tj).
    """
    witnesses = []
    for transaction in history.committed():
        observed_at: Dict[int, int] = {}
        for read in transaction.reads:
            writer = read.writer_txn
            if writer is INITIAL or writer == transaction.txn_id:
                continue
            if writer in history.transactions and history.transaction(writer).committed:
                observed_at.setdefault(writer, read.index)
        for read in transaction.reads:
            for writer, first_index in observed_at.items():
                if read.index <= first_index:
                    continue
                writer_txn = history.transaction(writer)
                if writer_txn.final_write(read.key) is None:
                    continue
                # The writer also wrote this key: the read must return the
                # writer's version or a newer one.
                observed_pos = history.version_position(read.key, read.writer_txn)
                writer_pos = history.version_position(read.key, writer)
                if observed_pos < writer_pos:
                    witnesses.append(Witness(
                        phenomenon=OTV,
                        transactions=[writer, transaction.txn_id],
                        description=(
                            f"T{transaction.txn_id} observed T{writer} (read index "
                            f"{first_index}) but later read {read.key!r} from an "
                            f"older version (position {observed_pos} < {writer_pos})"
                        ),
                    ))
    return witnesses


# ---------------------------------------------------------------------------
# Session-guarantee detectors
# ---------------------------------------------------------------------------

def walk_sessions(history: History) -> Dict[str, List[Witness]]:
    """N-MR, N-MW and MYR, found in one walk of each session's order."""
    found: Dict[str, List[Witness]] = {N_MR: [], N_MW: [], MYR: []}
    position = history.version_position
    for session_id, transactions in history.sessions().items():
        # key -> [highest position the session read, its reader, position of
        # the session's latest write, its writer]; -2 is below every position.
        seen: Dict[str, list] = {}
        for transaction in transactions:
            txn_id = transaction.txn_id
            for read in transaction.reads:
                at = position(read.key, read.writer_txn)
                state = seen.setdefault(read.key, [-2, None, -2, None])
                high, reader, written, writer = state
                if at < high:
                    found[N_MR].append(Witness(N_MR, [reader, txn_id], (
                        f"session {session_id}: T{txn_id} read {read.key!r} at "
                        f"version position {at}, older than position {high} "
                        "read earlier")))
                elif at > high:
                    state[:2] = at, txn_id
                if at < written and read.writer_txn != txn_id:
                    found[MYR].append(Witness(MYR, [writer, txn_id], (
                        f"session {session_id}: T{txn_id} read {read.key!r} "
                        f"older than the session's own write in T{writer}")))
            for key in transaction.write_keys():
                at = position(key, txn_id)
                state = seen.setdefault(key, [-2, None, -2, None])
                if at < state[2]:
                    found[N_MW].append(Witness(N_MW, [state[3], txn_id], (
                        f"session {session_id}: T{txn_id}'s write to {key!r} "
                        f"installed before its predecessor T{state[3]}'s write")))
                state[2:] = at, txn_id
    return found


def detect_missing_read_write_dependency(history: History) -> List[Witness]:
    """MRWD (writes-follow-reads violation).

    If T2 read T1's write to x and then wrote y, any transaction that reads
    T2's y must not *subsequently* read x from a version older than T1's.
    The "read ... then wrote" dependency is session-scoped, matching the
    paper's definition of the guarantee: a write follows everything its
    *session* has observed in earlier transactions, not only reads inside
    the writing transaction itself.  Like the OTV detector, read order
    inside the observer matters: causal consistency orders writes after the
    writes they depend on, but it never requires snapshot behaviour of reads
    issued *before* the dependent write was observed.
    """
    position = history.version_position
    #: session -> key -> {writer: (listing, its position)}: each (key, writer)
    #: it read, once, numbered in first-seen order (no session: its own one).
    sessions: Dict[int, Dict[str, Dict[int, Tuple[int, int]]]] = {}
    #: writer -> (its session's reads, the number its dependencies are below)
    prefixes: Dict[int, Tuple[Dict[str, Dict[int, Tuple[int, int]]], int]] = {}
    listed = 0
    for transaction in history.committed():  # in commit order
        txn_id, session_id = transaction.txn_id, transaction.session_id
        by_key = {} if session_id is None else sessions.setdefault(session_id, {})
        for read in transaction.reads:
            source, sources = read.writer_txn, by_key.setdefault(read.key, {})
            if source != txn_id and source in history.transactions and source not in sources:
                sources[source] = (listed, position(read.key, source))
                listed += 1
        if transaction.writes:
            prefixes[txn_id] = (by_key, listed)
    witnesses = []
    for observer in history.committed():
        observed_at: Dict[int, int] = {}
        reads = []
        for at, read in enumerate(observer.reads):
            if read.writer_txn != observer.txn_id:
                observed_at.setdefault(read.writer_txn, read.index)
            reads.append((at, read.key, read.index, position(read.key, read.writer_txn)))
        for writer, first_index in observed_at.items():
            by_key, end = prefixes.get(writer, ({}, 0))
            # The writer's dependencies in listing order, each's reads in order.
            finds = sorted(
                (listing, at, source, key)
                for at, key, index, observed in reads if index > first_index
                for source, (listing, required) in by_key.get(key, {}).items()
                if listing < end and observed < required)
            witnesses.extend(Witness(MRWD, [source, writer, observer.txn_id], (
                f"T{observer.txn_id} observed T{writer} (which read T{source}'s "
                f"{key!r}) but then read {key!r} from an older version"))
                for _, _, source, key in finds)
    return witnesses


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

PHENOMENA: Dict[str, Phenomenon] = {row.name: row for row in (
    Phenomenon(G0, "Dirty Write: write-dependency cycle", detect_g0, on=build_dsg),
    Phenomenon(G1A, "Aborted Read", detect_g1a),
    Phenomenon(G1B, "Intermediate Read", detect_g1b),
    Phenomenon(G1C, "Circular Information Flow", detect_g1c, on=build_dsg),
    Phenomenon(IMP, "Item-Many-Preceders", detect_imp),
    Phenomenon(PMP, "Predicate-Many-Preceders", detect_pmp),
    Phenomenon(OTV, "Observed Transaction Vanishes", detect_otv),
    Phenomenon(N_MR, "Non-monotonic Reads", itemgetter(N_MR), on=walk_sessions),
    Phenomenon(N_MW, "Non-monotonic Writes", itemgetter(N_MW), on=walk_sessions),
    Phenomenon(MRWD, "Missing Read-Write Dependency", detect_missing_read_write_dependency),
    Phenomenon(MYR, "Missing Your Writes", itemgetter(MYR), on=walk_sessions),
    Phenomenon(LOST_UPDATE, "Lost Update", detect_lost_update, on=build_dsg),
    Phenomenon(WRITE_SKEW, "Write Skew (G2-item)", detect_write_skew, on=build_dsg),
)}


def detect_each(history: History,
                phenomena: Iterable[str] = PHENOMENA) -> Dict[str, List[Witness]]:
    """Witnesses of each named phenomenon: every detector runs once, and each
    pass detectors share (the DSG, the session walk) is built once."""
    rows = [PHENOMENA[name] for name in phenomena]
    passes = {on: on(history) for on in dict.fromkeys(row.on for row in rows) if on}
    return {row.name: row.detector(passes[row.on] if row.on else history)
            for row in rows}


def detect(history: History, phenomenon: str) -> List[Witness]:
    """Run one named detector against a history."""
    if phenomenon not in PHENOMENA:
        raise KeyError(
            f"unknown phenomenon {phenomenon!r}; expected one of {sorted(PHENOMENA)}")
    return detect_each(history, (phenomenon,))[phenomenon]
