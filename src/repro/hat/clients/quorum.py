"""Dynamo-style majority quorums (non-HAT baseline).

Section 6.3: "clients sent requests to all replicas, which completed as soon
as a majority of servers responded (guaranteeing regular semantics)".  A
majority requirement makes the protocol unavailable under partitions that
isolate a minority side, and every operation's latency is governed by the
median-fastest majority replica — which, with replicas spread across
datacenters, still includes at least one wide-area round trip.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import UnavailableError
from repro.hat.clients.base import VALUE_BYTES, ProtocolClient
from repro.hat.transaction import SCAN, WRITE, Transaction, TransactionResult, resolve_derived
from repro.replication.quorum import quorum_of
from repro.storage.records import Version


class QuorumClient(ProtocolClient):
    """Read/write majority quorum client."""

    def _run(self, transaction: Transaction, result: TransactionResult) -> Generator:
        # Drawn lazily, per write, so the Lamport rule holds: a write's
        # timestamp must order after every version this transaction has
        # read, or the quorum merge would discard it as older.
        timestamp = None
        for op in list(transaction.operations):
            if op.kind == SCAN:
                raise UnavailableError("quorum prototype does not support scans")
            if op.derive is not None:
                op = resolve_derived(transaction, op, result)
            replicas = self._placements[op.key].replicas
            majority = len(replicas) // 2 + 1
            result.remote_rpcs += len(replicas) - 1  # all but the home replica
            if op.kind == WRITE:
                # Redrawn once reads witnessed sequences beyond it.
                if (timestamp is None
                        or self.node._next_sequence > timestamp.sequence + 1):
                    timestamp = self.node.next_timestamp()
                    result.timestamp = timestamp
                version = Version(op.key, op.value, timestamp,
                                  transaction.txn_id)
                futures = [
                    self._rpc(replica, "quorum.put", {"version": version},
                              VALUE_BYTES)
                    for replica in replicas
                ]
                yield quorum_of(self.node.env, futures, majority)
            else:
                futures = [
                    self._rpc(replica, "quorum.get", {"key": op.key})
                    for replica in replicas
                ]
                replies = yield quorum_of(self.node.env, futures, majority)
                versions = [reply["version"] for reply in replies]
                latest = max(versions, key=lambda v: v.timestamp)
                self._observe(result, op.key, latest)
        if timestamp is None:
            # Read-only transactions still get a (post-reads) timestamp.
            result.timestamp = self.node.next_timestamp()
