"""Distributed two-phase locking with two-phase commit (non-HAT baseline).

Section 6.1: serializability requires a globally agreed total order, which in
a distributed setting means at least one wide-area round trip per lock
operation plus a commit protocol.  This client implements the textbook
variant the paper benchmarks: an exclusive lock per accessed key at the key's
master replica, reads served by the master while the lock is held, buffered
writes installed through a prepare/commit round, and all locks released after
commit.  Lock waits are bounded by a timeout, which doubles as deadlock
resolution (the timed-out transaction aborts).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Tuple

from repro.errors import ExternalAbort, RequestTimeout, UnavailableError
from repro.hat.clients.base import VALUE_BYTES, ProtocolClient
from repro.hat.transaction import READ, SCAN, Transaction, TransactionResult, resolve_derived
from repro.sim.process import all_of
from repro.storage.records import Version


class TwoPhaseLockingClient(ProtocolClient):
    """Serializable transactions via 2PL + 2PC (unavailable under partitions)."""

    def __init__(self, *args, lock_timeout_ms: float = 5000.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.lock_timeout_ms = lock_timeout_ms

    def _run(self, transaction: Transaction, result: TransactionResult) -> Generator:
        held: List[Tuple[str, str]] = []
        write_buffer: Dict[str, object] = {}
        prepared_masters: List[str] = []

        def _release_all() -> None:
            for key, master in held:
                self.node.network.send(self.node.name, master, "lock.release",
                                       {"key": key, "txn_id": transaction.txn_id})

        try:
            # Growing phase: one lock acquisition (and one data round trip for
            # reads) per operation, each against the key's master.  Derived
            # writes resolve here, while every lock acquired so far is still
            # held — so the read-modify-write they encode is serialized.
            for op in list(transaction.operations):
                if op.kind == SCAN:
                    raise UnavailableError("2PL prototype does not support scans")
                if op.derive is not None:
                    op = resolve_derived(transaction, op, result)
                record = self._placements[op.key]
                master = record.master
                if master is not record.replicas[self._home_index]:
                    result.remote_rpcs += 1
                try:
                    yield self.node.network.rpc(
                        self.node.name, master, "lock.acquire",
                        {"key": op.key, "txn_id": transaction.txn_id},
                        self.lock_timeout_ms)
                except RequestTimeout as exc:
                    # Possible deadlock or partition: give up the lock request
                    # and abort.  The release also purges a queued waiter.
                    self.node.network.send(self.node.name, master, "lock.release",
                                           {"key": op.key, "txn_id": transaction.txn_id})
                    raise ExternalAbort(f"lock timeout on {op.key!r}") from exc
                held.append((op.key, master))
                if op.kind == READ:
                    if op.key in write_buffer:
                        version = Version(op.key, write_buffer[op.key],
                                          self.node.commit_timestamp(),
                                          transaction.txn_id)
                        self._observe(result, op.key, version)
                    else:
                        reply = yield self._rpc(master, "master.get", {"key": op.key})
                        self._observe(result, op.key, reply["version"])
                else:
                    write_buffer[op.key] = op.value

            # Two-phase commit across the masters of written keys.  The commit
            # timestamp is drawn *after* every lock is held, so installed
            # version orders agree with the two-phase-locking serialization
            # order.
            timestamp = self.node.commit_timestamp()
            result.timestamp = timestamp
            writes_by_master: Dict[str, List] = {}
            for key, value in write_buffer.items():
                version = Version(key, value, timestamp, transaction.txn_id)
                writes_by_master.setdefault(self._placements[key].master, []).append(version)
            if writes_by_master:
                prepare_futures = []
                for master, versions in writes_by_master.items():
                    prepared_masters.append(master)
                    prepare_futures.append(self._rpc(master, "txn.prepare", {
                        "txn_id": transaction.txn_id,
                        "versions": versions,
                    }, VALUE_BYTES * len(versions)))
                votes = yield all_of(self.node.env, prepare_futures)
                if not all(vote.get("vote") for vote in votes):
                    raise ExternalAbort("a participant voted no during prepare")
                commit_futures = [
                    self._rpc(master, "txn.commit", {"txn_id": transaction.txn_id})
                    for master in writes_by_master
                ]
                yield all_of(self.node.env, commit_futures)
        except (RequestTimeout, UnavailableError) as exc:
            for master in prepared_masters:
                self.node.network.send(self.node.name, master, "txn.abort",
                                       {"txn_id": transaction.txn_id})
            _release_all()
            raise ExternalAbort(str(exc)) from exc
        except ExternalAbort:
            for master in prepared_masters:
                self.node.network.send(self.node.name, master, "txn.abort",
                                       {"txn_id": transaction.txn_id})
            _release_all()
            raise
        else:
            # Shrinking phase: release every lock after commit.
            _release_all()
