"""The session detectors as they stood before they became two passes.

``repro.adya.phenomena`` finds N-MR, N-MW and MYR in one walk of each
session, and MRWD from each writer's session-read prefix.  These are the
four detectors it replaced, verbatim: each walks every session on its own,
and MRWD copies each session's accumulated reads into every writing
transaction.  ``test_property_session_rules.py`` holds the rewrite to them,
witness text and order.
"""

from typing import Dict, List

from repro.adya.history import History, INITIAL
from repro.adya.phenomena import MRWD, MYR, N_MR, N_MW, Witness


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


#: Phenomenon -> its reference detector.
REFERENCE = {
    N_MR: detect_non_monotonic_reads,
    N_MW: detect_non_monotonic_writes,
    MYR: detect_missing_your_writes,
    MRWD: detect_missing_read_write_dependency,
}
