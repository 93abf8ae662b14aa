"""The non-HAT ``master`` configuration: per-key linearizable operation.

"All operations for a given key are routed to a (randomly) designated master
replica for each key (guaranteeing single-key linearizability ... as in
PNUTS's 'read latest' operation)" (Section 6.3).  When the master for a key
lives in another datacenter, every operation pays a wide-area round trip —
which is precisely the latency penalty Figures 3B and 3C show.  When a
partition separates the client from a master, the operation is unavailable.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import RequestTimeout, UnavailableError
from repro.hat.clients.base import VALUE_BYTES, ProtocolClient
from repro.hat.transaction import SCAN, WRITE, Transaction, TransactionResult, resolve_derived
from repro.storage.records import NO_SIBLINGS, Version, new_tuple


class MasterClient(ProtocolClient):
    """Routes every operation to the key's designated master replica."""

    def _run(self, transaction: Transaction, result: TransactionResult) -> Generator:
        # The timestamp tracks simulated time so that versions install at the
        # master in the order operations reach it (single-key linearizability).
        timestamp = self.node.commit_timestamp()
        result.timestamp = timestamp
        network, name = self.node.network, self.node.name
        partitions, timeout_ms = network.partitions, self.rpc_timeout_ms
        for op in list(transaction.operations):
            if op.kind == SCAN:
                raise UnavailableError("the master configuration does not "
                                       "support predicate reads in this prototype")
            if op.derive is not None:
                op = resolve_derived(transaction, op, result)
            record = self._placements[op.key]
            master = record.master
            # The verdict memo first, as ``Network.send`` reads it.
            if not (partitions.idle or partitions.verdicts.get((name, master))
                    or partitions.connected(name, master)):
                raise UnavailableError(
                    f"master {master!r} for key {op.key!r} is unreachable"
                )
            # Count the wide-area hop only once the RPC is actually issued.
            if master is not record.replicas[self._home_index]:
                result.remote_rpcs += 1
            try:  # ``_rpc``, in place: one frame fewer per operation
                if op.kind == WRITE:
                    version = new_tuple(Version, (op.key, op.value, timestamp,
                                                  transaction.txn_id, NO_SIBLINGS, False))
                    yield network.rpc(name, master, "master.put",
                                      {"version": version}, timeout_ms, VALUE_BYTES)
                else:
                    reply = yield network.rpc(name, master, "master.get",
                                              {"key": op.key}, timeout_ms, 0)
                    self._observe(result, op.key, reply["version"])
            except RequestTimeout as exc:
                raise UnavailableError(str(exc)) from exc
