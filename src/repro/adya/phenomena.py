"""Phenomenon detectors (paper Appendix A.3, Definitions 16-39).

Each detector examines a :class:`~repro.adya.history.History` and returns the
witnesses it finds.  Cycle-based phenomena (G0, G1c, Lost Update, Write Skew)
follow Adya's serialization-graph definitions directly; the session and
visibility phenomena use operational formulations equivalent to the paper's
definitions, which are both easier to audit and robust on histories recorded
from live protocol runs:

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
from typing import Callable, Dict, Iterable, List

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
    #: ``detector(history)``, or ``detector(history, dsg)`` when ``on_graph``.
    detector: Callable[..., List[Witness]]
    #: Cycle-based: the detector also takes the history's DSG (its edge list).
    on_graph: bool = False


# ---------------------------------------------------------------------------
# Cycle-based detectors (over the history's DSG, built once by the caller)
# ---------------------------------------------------------------------------

def _cycle_witnesses(phenomenon: str, label: str, cycles) -> List[Witness]:
    return [Witness(phenomenon=phenomenon,
                    transactions=sorted({edge.src for edge in cycle}),
                    description=f"{label}: " + " ".join(map(str, cycle)))
            for cycle in cycles]


def detect_g0(history: History, dsg) -> List[Witness]:
    """Dirty Writes: a cycle made solely of write dependencies."""
    return _cycle_witnesses(G0, "write-dependency cycle",
                            cycles_with(dsg, allowed_kinds={WW}))


def detect_g1c(history: History, dsg) -> List[Witness]:
    """Circular Information Flow: cycle of write/read dependencies."""
    return _cycle_witnesses(G1C, "dependency cycle",
                            cycles_with(dsg, allowed_kinds={WW, WR}))


def detect_lost_update(history: History, dsg) -> List[Witness]:
    """Lost Update: a single-item cycle containing an anti-dependency."""
    per_item = cycles_by_item(dsg, history.keys(), allowed_kinds={WW, WR, RW},
                              required_kinds={RW})
    return [witness for key, cycles in per_item
            for witness in _cycle_witnesses(
                LOST_UPDATE, f"anti-dependency cycle on item {key!r}", cycles)]


def detect_write_skew(history: History, dsg) -> List[Witness]:
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

def detect_non_monotonic_reads(history: History) -> List[Witness]:
    """N-MR: a later transaction in a session read an older version."""
    witnesses = []
    for session_id, transactions in history.sessions().items():
        high_water: Dict[str, int] = {}
        high_source: Dict[str, int] = {}
        for transaction in transactions:
            for read in transaction.reads:
                position = history.version_position(read.key, read.writer_txn)
                previous = high_water.get(read.key)
                if previous is not None and position < previous:
                    witnesses.append(Witness(
                        phenomenon=N_MR,
                        transactions=[high_source[read.key], transaction.txn_id],
                        description=(
                            f"session {session_id}: T{transaction.txn_id} read "
                            f"{read.key!r} at version position {position}, older "
                            f"than position {previous} read earlier"
                        ),
                    ))
                if previous is None or position > previous:
                    high_water[read.key] = position
                    high_source[read.key] = transaction.txn_id
    return witnesses


def detect_non_monotonic_writes(history: History) -> List[Witness]:
    """N-MW: a session's writes to an item installed out of session order."""
    witnesses = []
    for session_id, transactions in history.sessions().items():
        last_position: Dict[str, int] = {}
        last_writer: Dict[str, int] = {}
        for transaction in transactions:
            for key in transaction.write_keys():
                position = history.version_position(key, transaction.txn_id)
                previous = last_position.get(key)
                if previous is not None and position < previous:
                    witnesses.append(Witness(
                        phenomenon=N_MW,
                        transactions=[last_writer[key], transaction.txn_id],
                        description=(
                            f"session {session_id}: T{transaction.txn_id}'s write to "
                            f"{key!r} installed before its predecessor "
                            f"T{last_writer[key]}'s write"
                        ),
                    ))
                last_position[key] = position
                last_writer[key] = transaction.txn_id
    return witnesses


def detect_missing_your_writes(history: History) -> List[Witness]:
    """MYR: a session read an item older than its own earlier write."""
    witnesses = []
    for session_id, transactions in history.sessions().items():
        own_write_position: Dict[str, int] = {}
        own_writer: Dict[str, int] = {}
        for transaction in transactions:
            for read in transaction.reads:
                if read.key in own_write_position and read.writer_txn != transaction.txn_id:
                    position = history.version_position(read.key, read.writer_txn)
                    if position < own_write_position[read.key]:
                        witnesses.append(Witness(
                            phenomenon=MYR,
                            transactions=[own_writer[read.key], transaction.txn_id],
                            description=(
                                f"session {session_id}: T{transaction.txn_id} read "
                                f"{read.key!r} older than the session's own write in "
                                f"T{own_writer[read.key]}"
                            ),
                        ))
            for key in transaction.write_keys():
                own_write_position[key] = history.version_position(key, transaction.txn_id)
                own_writer[key] = transaction.txn_id
    return witnesses


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
    witnesses = []
    committed = sorted(history.committed(), key=lambda t: t.commit_order)
    # Map: writer txn -> {(key, source txn)} it (or its session) read before
    # writing.  Dependencies are deduplicated (key, writer) pairs — sessions
    # re-read the same versions constantly, and copying the raw read log
    # into every writing transaction would be quadratic in history length.
    read_before_write: Dict[int, List] = {}
    session_reads: Dict[int, Dict] = {}
    for transaction in committed:
        dependencies: Dict = {}
        if transaction.session_id is not None:
            dependencies.update(session_reads.get(transaction.session_id, {}))
        own_reads: Dict = {}
        for read in transaction.reads:
            if read.writer_txn is INITIAL or read.writer_txn == transaction.txn_id:
                continue
            own_reads[(read.key, read.writer_txn)] = None
        dependencies.update(own_reads)
        if dependencies and transaction.write_keys():
            read_before_write[transaction.txn_id] = list(dependencies)
        if transaction.session_id is not None:
            session_reads.setdefault(transaction.session_id, {}).update(own_reads)
    for observer in committed:
        observed_at: Dict[int, int] = {}
        reads_of: Dict[str, List] = {}
        for read in observer.reads:
            reads_of.setdefault(read.key, []).append(read)
            if read.writer_txn is INITIAL or read.writer_txn == observer.txn_id:
                continue
            observed_at.setdefault(read.writer_txn, read.index)
        for writer, first_index in observed_at.items():
            for dep_key, dep_writer in read_before_write.get(writer, []):
                if dep_writer not in history.transactions:
                    continue
                for read in reads_of.get(dep_key, ()):
                    if read.index <= first_index:
                        continue
                    observed_pos = history.version_position(dep_key, read.writer_txn)
                    required_pos = history.version_position(dep_key, dep_writer)
                    if observed_pos < required_pos:
                        witnesses.append(Witness(
                            phenomenon=MRWD,
                            transactions=[dep_writer, writer, observer.txn_id],
                            description=(
                                f"T{observer.txn_id} observed T{writer} (which read "
                                f"T{dep_writer}'s {dep_key!r}) but then read "
                                f"{dep_key!r} from an older version"
                            ),
                        ))
    return witnesses


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

PHENOMENA: Dict[str, Phenomenon] = {row.name: row for row in (
    Phenomenon(G0, "Dirty Write: write-dependency cycle", detect_g0, on_graph=True),
    Phenomenon(G1A, "Aborted Read", detect_g1a),
    Phenomenon(G1B, "Intermediate Read", detect_g1b),
    Phenomenon(G1C, "Circular Information Flow", detect_g1c, on_graph=True),
    Phenomenon(IMP, "Item-Many-Preceders", detect_imp),
    Phenomenon(PMP, "Predicate-Many-Preceders", detect_pmp),
    Phenomenon(OTV, "Observed Transaction Vanishes", detect_otv),
    Phenomenon(N_MR, "Non-monotonic Reads", detect_non_monotonic_reads),
    Phenomenon(N_MW, "Non-monotonic Writes", detect_non_monotonic_writes),
    Phenomenon(MRWD, "Missing Read-Write Dependency", detect_missing_read_write_dependency),
    Phenomenon(MYR, "Missing Your Writes", detect_missing_your_writes),
    Phenomenon(LOST_UPDATE, "Lost Update", detect_lost_update, on_graph=True),
    Phenomenon(WRITE_SKEW, "Write Skew (G2-item)", detect_write_skew, on_graph=True),
)}


def detect_each(history: History,
                phenomena: Iterable[str] = PHENOMENA) -> Dict[str, List[Witness]]:
    """Witnesses of each named phenomenon: every detector runs once, and the
    cycle-based ones share one DSG."""
    rows = [PHENOMENA[name] for name in phenomena]
    dsg = build_dsg(history) if any(row.on_graph for row in rows) else None
    return {row.name: row.detector(history, dsg) if row.on_graph
            else row.detector(history) for row in rows}


def detect(history: History, phenomenon: str) -> List[Witness]:
    """Run one named detector against a history."""
    if phenomenon not in PHENOMENA:
        raise KeyError(
            f"unknown phenomenon {phenomenon!r}; expected one of {sorted(PHENOMENA)}")
    return detect_each(history, (phenomenon,))[phenomenon]
