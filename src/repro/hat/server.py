"""The HAT database server: handlers for every protocol configuration.

One :class:`HATServer` supports all the configurations benchmarked in
Section 6.3 — the testbed simply selects which client talks to it:

* ``ru.*`` — Read Uncommitted / eventual and Read Committed writes and reads
  (RC differs from eventual only on the client, which buffers writes),
* ``mav.*`` — the Monotonic Atomic View algorithm of Appendix B (pending and
  good sets, promotion; a server's own ack is applied in place, the others
  are *owed* until the anti-entropy tick: see :mod:`repro.hat.mav_state`),
* ``master.*`` / ``repl.push`` — mastered per-key operation with asynchronous
  replication to the other replicas,
* ``lock.*`` / ``txn.*`` — the per-key lock service and two-phase commit used
  by the distributed two-phase-locking baseline,
* ``quorum.*`` — read/write handlers for Dynamo-style majority quorums,
* ``ae.push`` — incoming anti-entropy batches and the acks riding them.

Every handler returns ``(reply payload, extra service cost in ms)``; the
underlying :class:`~repro.cluster.node.ServerNode` adds queueing and worker
occupancy, which is where throughput saturation comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.node import ServerNode, ServiceCostModel
from repro.hat.mav_state import Ack, MAVState
from repro.net.network import Message, Network
from repro.replication.antientropy import (AntiEntropyClock, AntiEntropyConfig,
                                           AntiEntropyService)
from repro.replication.lockmanager import LockManager
from repro.sim import Environment
from repro.storage.records import Timestamp, Version


@dataclass(slots=True)
class HandoffStats:
    """Counters for membership handoff traffic through this server."""

    fetches_served: int = 0
    offers_received: int = 0
    versions_sent: int = 0
    versions_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


class HATServer(ServerNode):
    """A database server that can serve every benchmarked protocol."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        name: str,
        config: ClusterConfig,
        cost_model: Optional[ServiceCostModel] = None,
        anti_entropy: Optional[AntiEntropyConfig] = None,
        keep_versions: Optional[int] = None,
        admission=None,
        ae_clock: Optional[AntiEntropyClock] = None,
    ):
        super().__init__(env, network, name, cost_model=cost_model,
                         keep_versions=keep_versions, admission=admission)
        self.config = config
        self.mav = MAVState(name, config)
        self.locks = LockManager()
        self._prepared: Dict[int, List[Version]] = {}
        self.anti_entropy = AntiEntropyService(env, self, config, anti_entropy,
                                               ae_clock)
        self.handoff = HandoffStats()
        #: The recency probe (None unless the network carries a registry).
        self._staleness = None
        metrics = network.metrics
        if metrics is not None:
            self._staleness = metrics.staleness
            # Counts this server already keeps, read when the registry exports.
            handoff, locks = self.handoff, self.locks.stats
            for series, read in (
                    ("handoff_fetches_total", lambda: handoff.fetches_served),
                    ("handoff_versions_sent_total", lambda: handoff.versions_sent),
                    ("handoff_offers_total", lambda: handoff.offers_received),
                    ("handoff_versions_received_total",
                     lambda: handoff.versions_received),
                    ("lock_waits_total", lambda: locks.waited)):
                metrics.collect_counter(series, read, node=name)

        self.register_handler("ru.put", self._handle_ru_put)
        self.register_handler("ru.get", self._handle_ru_get)
        self.register_handler("ru.scan", self._handle_ru_scan)
        self.register_handler("mav.put", self._handle_mav_put)
        self.register_handler("mav.get", self._handle_mav_get)
        self.register_handler("mav.notify", self._handle_mav_notify)
        self.register_handler("master.put", self._handle_master_put)
        self.register_handler("master.get", self._handle_ru_get)
        self.register_handler("repl.push", self._handle_repl_push)
        self.register_handler("lock.acquire", self._handle_lock_acquire)
        self.register_handler("lock.release", self._handle_lock_release)
        self.register_handler("txn.prepare", self._handle_txn_prepare)
        self.register_handler("txn.commit", self._handle_txn_commit)
        self.register_handler("txn.abort", self._handle_txn_abort)
        self.register_handler("quorum.put", self._handle_ru_put)
        self.register_handler("quorum.get", self._handle_ru_get)
        self.register_handler("ae.push", self._handle_ae_push)
        self.register_handler("ae.round", self._handle_ae_round)
        self.register_handler("handoff.fetch", self._handle_handoff_fetch)
        self.register_handler("handoff.offer", self._handle_handoff_offer)

    def recover(self) -> None:
        super().recover()
        self.anti_entropy.wake()

    # -- shared helpers ---------------------------------------------------------
    def _install(self, version: Version, size_bytes: int, durable: bool = True) -> float:
        """Install a version into the main (good) store; return its cost."""
        cost = self.store.put(version, size_bytes)
        if durable:
            cost += self.wal.append("put", None, None, size_bytes)
        staleness = self._staleness
        if staleness is not None:
            # Single install chokepoint: anti-entropy batches, master
            # replication pushes, MAV promotions, and handoff offers all
            # land here, so one probe call covers every replication path.
            staleness.on_install(version.key, version.timestamp, self.name,
                                 self.env._now)
        return cost

    def _stamp_commit(self, version: Version) -> None:
        """Tell the recency probe a client write committed at this origin.

        The key's replica set is frozen as of commit time so that a later
        rebalance streaming this version to a brand-new owner does not
        count as t-visibility lag.
        """
        staleness = self._staleness
        if staleness is not None:
            staleness.on_commit(version.key, version.timestamp, self.name,
                                self.env._now,
                                self.config.replicas_for(version.key))

    # -- Read Uncommitted / Read Committed / quorum ------------------------------
    def _handle_ru_put(self, message: Message) -> Tuple[dict, float]:
        payload = message.payload
        version: Version = payload["version"]
        size = int(payload.get("size_bytes", 1024))
        self._stamp_commit(version)
        cost = self._install(version, size)
        self.anti_entropy.mark_dirty(version)
        return {"ok": True, "timestamp": version.timestamp}, cost

    def _handle_ru_get(self, message: Message) -> Tuple[dict, float]:
        key = message.payload["key"]
        version, cost = self.store.get_latest(key)
        return {"version": version}, cost

    def _handle_ru_scan(self, message: Message) -> Tuple[dict, float]:
        predicate = message.payload["predicate"]
        matches, cost = self.store.scan(lambda key, version: predicate(key, version.value))
        return {"versions": matches}, cost

    # -- Monotonic Atomic View (Appendix B) ------------------------------------------
    def _handle_mav_put(self, message: Message) -> Tuple[dict, float]:
        payload = message.payload
        version: Version = payload["version"]
        size = payload.get("size_bytes")
        size = int(size) if size is not None else 1024 + version.metadata_bytes
        # A MAV write is committed (acknowledged to the client) on arrival
        # at the origin; its remote installs happen at promotion time.
        self._stamp_commit(version)
        return ({"ok": True, "timestamp": version.timestamp},
                self._accept_mav_write(version, size, push=True))

    def _accept_mav_write(self, version: Version, size_bytes: int,
                          push: bool) -> float:
        """Common path for MAV writes from clients or anti-entropy
        (``size_bytes``: value plus sibling metadata).  Our own ack for a
        first-seen write is applied here, promoting it if its other acks came
        first; the others' are owed until the tick.  Only a server that
        ``push``es the write (its origin or a leaver's successor) marks it for
        anti-entropy, which arms the tick; an ``ae.push`` receiver's batch
        wakes it once, in :meth:`_absorb_versions`."""
        # First write into the write-ahead log / pending set (first of the
        # "two writes for every client-side write" the paper describes).
        cost = self.wal.append("put", None, None, size_bytes)
        promoted = self.mav.add_write(version)
        if promoted is not None:
            if push:
                self.anti_entropy.mark_dirty(version)
            for stable in promoted:
                cost += self._install(stable, 1024)
        elif (self.mav.is_stable(version.timestamp)
              and self.store.data.exact(version.key, version.timestamp) is None):
            # Every replica already acknowledged this transaction: nobody
            # waits for our ack, the write goes straight into good.  (An echo
            # of a write we already hold, pending or good, is a no-op.)
            self.mav.stats.puts += 1
            self.mav.stats.promoted += 1
            cost += self._install(version, 1024)
        return cost

    def send_owed_acks(self) -> None:
        """Send the acks no push of this anti-entropy round carries: one
        batch per reachable server, in sorted order (seeded runs stay
        bit-identical whatever the hash seed); an unreachable one keeps its
        list and keeps the tick armed."""
        owed = self.mav.owed
        connected = self.network.partitions.connected
        for server in sorted(owed):
            if connected(self.name, server):
                self.mav.stats.notifies_sent += 1
                self.network.send(self.name, server, "mav.notify",
                                  {"acks": owed.pop(server)})

    def _apply_acks(self, acks: Sequence[Ack]) -> float:
        """Record received acks (0.01 ms each); promote (pending -> good) what
        they made stable, in the worker of the handler that saw stability."""
        cost = 0.01 * len(acks)
        for version in self.mav.record_acks(acks):
            cost += self._install(version, 1024)
        return cost

    def _handle_mav_notify(self, message: Message) -> Tuple[None, float]:
        return None, self._apply_acks(message.payload["acks"])

    def _handle_mav_get(self, message: Message) -> Tuple[dict, float]:
        payload = message.payload
        key = payload["key"]
        required: Optional[Timestamp] = payload.get("required")
        version, cost = self.store.get_latest(key)
        if required is None or version.timestamp >= required:
            return {"version": version}, cost
        pending = self.mav.read_pending(key, required)
        if pending is not None:
            return {"version": pending}, cost + 0.05
        # The algorithm's invariant makes this unreachable when the required
        # bound was learned from a stable sibling; fall back to the latest
        # good version rather than blocking (availability first).
        return {"version": version, "stale": True}, cost

    def _absorb_versions(self, versions: List[Version], push: bool) -> float:
        """Take in replicated history (anti-entropy batch, handoff offer).
        A batch not pushed on wakes the tick once after its MAV writes, for
        the acks they owe (a no-op when the tick is already armed)."""
        cost, mav_writes = 0.0, False
        for version in versions:
            if version.siblings:
                # MAV writes stay pending until their transaction is stable.
                cost += self._accept_mav_write(
                    version, 1024 + version.metadata_bytes, push=push)
                mav_writes = True
            else:
                cost += self._install(version, 1024)
        if mav_writes and not push:
            self.anti_entropy.wake()
        return cost

    # -- master / asynchronous replication -----------------------------------------------
    def _handle_master_put(self, message: Message) -> Tuple[dict, float]:
        payload = message.payload
        version: Version = payload["version"]
        size = int(payload.get("size_bytes", 1024))
        self._stamp_commit(version)
        cost = self._install(version, size)
        for peer in self.config.peer_replicas(version.key, self.name):
            self.network.send(self.name, peer, "repl.push",
                              {"version": version, "size_bytes": size},
                              size_bytes=size)
        return {"ok": True, "timestamp": version.timestamp}, cost

    def _handle_repl_push(self, message: Message) -> Tuple[None, float]:
        payload = message.payload
        version: Version = payload["version"]
        cost = self._install(version, int(payload.get("size_bytes", 1024)))
        return None, cost

    # -- two-phase locking / two-phase commit ----------------------------------------------
    def _handle_lock_acquire(self, message: Message) -> Tuple[None, float]:
        payload = message.payload
        key, txn_id = payload["key"], payload["txn_id"]
        requested_at = self.env.now

        def _grant() -> None:
            if not self.alive:
                return
            wait_ms = self.env.now - requested_at
            if wait_ms > 0.0:
                # Only contended grants earn a lock-wait span or a wait
                # observation; an immediate grant spent no time blocked.
                network, trace = self.network, message.trace
                if trace is not None:
                    span = network.tracer.start_span(
                        f"lock-wait:{key}", "lock", trace, self.name,
                        start_ms=requested_at)
                    span.attrs["key"] = key
                    span.attrs["wait_ms"] = wait_ms
                    network.tracer.finish(span, self.env.now)
                if network.metrics is not None:
                    network.metrics.observe("lock_wait_ms", self.env.now,
                                            wait_ms, node=self.name)
            self.network.reply(message, {"granted": True, "key": key})

        self.locks.acquire(key, txn_id, _grant)
        return None, 0.02

    def _handle_lock_release(self, message: Message) -> Tuple[dict, float]:
        payload = message.payload
        released = self.locks.release(payload["key"], payload["txn_id"])
        return {"released": released}, 0.02

    def _handle_txn_prepare(self, message: Message) -> Tuple[dict, float]:
        payload = message.payload
        txn_id = payload["txn_id"]
        versions: List[Version] = payload.get("versions", [])
        self._prepared[txn_id] = versions
        cost = self.wal.append("put", None, None, 256 + 1024 * len(versions))
        return {"vote": True, "txn_id": txn_id}, cost

    def _handle_txn_commit(self, message: Message) -> Tuple[dict, float]:
        payload = message.payload
        txn_id = payload["txn_id"]
        versions = self._prepared.pop(txn_id, [])
        cost = self.wal.append("put", None, None, 128)
        for version in versions:
            cost += self._install(version, 1024, durable=False)
        return {"committed": True, "txn_id": txn_id}, cost

    def _handle_txn_abort(self, message: Message) -> Tuple[dict, float]:
        txn_id = message.payload["txn_id"]
        self._prepared.pop(txn_id, None)
        return {"aborted": True, "txn_id": txn_id}, 0.02

    # -- membership handoff ---------------------------------------------------------------
    def _handle_handoff_fetch(self, message: Message) -> Tuple[dict, float]:
        """Stream the version history a joining server is owed.

        This prior owner replies with every retained version of the keys the
        joiner's predicate selects (its range under the pending ring) and its
        full key list, the population the moved fraction is measured
        against.  Writes accepted after this scan are repaired at the epoch
        flip, which re-dirties the moved keys for anti-entropy.
        """
        predicate = message.payload["predicate"]
        store = self.store.data
        all_keys = sorted(store.keys())
        versions: List[Version] = []
        for key in all_keys:
            if predicate(key):
                versions.extend(store.versions(key))
        self.handoff.fetches_served += 1
        self.handoff.versions_sent += len(versions)
        self.handoff.bytes_sent += (
            self.anti_entropy.settings.bytes_per_version * len(versions))
        # One memtable/SSTable read per streamed key batch — or, coupled,
        # the streaming cost a heal backlog pays, competing the same way.
        settings = self.anti_entropy.settings
        per_version = (settings.send_cost_ms_per_version
                       if settings.capacity_coupled else 0.02)
        cost = per_version * max(1, len(versions))
        return {"versions": versions, "all_keys": all_keys}, cost

    def _handle_handoff_offer(self, message: Message) -> Tuple[dict, float]:
        """Absorb version history handed off by a leaving server."""
        versions: List[Version] = message.payload["versions"]
        # The leaver's successor takes over its duty to push them.
        cost = self._absorb_versions(versions, push=True)
        self.handoff.offers_received += 1
        self.handoff.versions_received += len(versions)
        self.handoff.bytes_received += int(message.payload.get("size_bytes", 0))
        return {"ok": True, "count": len(versions)}, cost

    # -- anti-entropy -----------------------------------------------------------------------------
    def _handle_ae_round(self, message: Message) -> Tuple[None, float]:
        """One capacity-coupled anti-entropy round, as queued work: its
        streaming cost occupies this server's worker, so a catch-up backlog
        steals capacity from foreground requests instead of being free."""
        service = self.anti_entropy
        return None, (service.settings.send_cost_ms_per_version
                      * service.run_round())

    def _handle_ae_push(self, message: Message) -> Tuple[None, float]:
        """The sender's versions, then the acks it owed us this round."""
        payload = message.payload
        cost = self._absorb_versions(payload["versions"], push=False)
        acks = payload.get("acks")
        if acks:
            cost += self._apply_acks(acks)
        return None, cost
