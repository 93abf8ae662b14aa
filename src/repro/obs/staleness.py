"""Recency probes: t-visibility and k-staleness.

The paper's central concession is that HATs cannot bound recency; its
rejoinder (Section 2.3, citing the PBS work) is that *observed* staleness
is usually small.  This module quantifies that claim with the two PBS
metrics, measured with oracle knowledge of the simulated cluster:

* **t-visibility** — the wall-clock (simulated) lag between a write
  committing at its origin replica and that version being *installed* in
  each other replica's good store.  One observation is recorded per
  (version, remote replica) pair, bucketed by **commit time**: a write
  accepted just before a partition is attributed to the partition phase
  even though the install that completes the measurement happens after the
  heal.  Without this rule the partition phase would look artificially
  fresh — the delayed installs would all land in the recovery phase.
* **k-staleness** — for every read a client stack serves, how many newer
  committed versions of that key existed anywhere in the system at the
  moment of the read.  ``k = 0`` means the read returned the globally
  freshest version.

Both probes are pure bookkeeping on the simulated clock: no events are
scheduled, no randomness is consumed, and all state lives in plain dicts
and sorted lists, so enabling them cannot perturb the event sequence.
Their counts are *collected*, not recorded per event: installs and reads
are the observation counts of the two histograms, commits a plain int.

Idempotence: replayed anti-entropy (the same version pushed to the same
replica twice, which the protocol allows) records at most one t-visibility
observation per (version, replica), and re-announcing a commit is a no-op.
This is what makes the probe's output a deterministic function of the
*set* of (commit, install) facts rather than of delivery multiplicity —
property-tested in ``tests/properties/test_property_metrics.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Tuple

__all__ = ["StalenessProbe"]

_new_record = object.__new__


class _PendingCommit:
    """One committed version awaiting installs, filled by ``on_commit`` (no
    ``__init__`` frame): commit time, origin, commit-time ``replicas``, how
    many besides the origin are ``owed``, and the sites that ``installed`` it."""

    __slots__ = ("commit_ms", "origin", "replicas", "owed", "installed")


class StalenessProbe:
    """Oracle recency bookkeeping feeding a metrics registry.

    The probe holds two structures, both keyed by the version identity
    ``(key, timestamp)`` that the HAT stores already use for idempotent
    installs:

    * a pending-commit map — commit time and origin of every committed
      version still owed an install, plus the set of replicas that have
      installed it (so duplicate deliveries are counted once); a version
      is forgotten once every commit-time replica has it, and
    * a per-key sorted ledger of committed timestamps — the global
      version history against which k-staleness ranks each read, and what
      makes a version "known".
    """

    def __init__(self, registry):
        self._pending: Dict[Tuple[str, object], _PendingCommit] = {}
        self._ledger: Dict[str, List] = {}
        self._t_visibility = visibility = registry.histogram("t_visibility_ms")
        self._k_staleness = staleness = registry.histogram("k_staleness_versions")
        self._commits = 0
        registry.collect_counter("staleness_commits_total", lambda: self._commits)
        registry.collect_counter("staleness_installs_total", lambda: visibility.total.count)
        registry.collect_counter("staleness_reads_total", lambda: staleness.total.count)

    # -- write path ----------------------------------------------------------
    def on_commit(self, key: str, timestamp, origin: str, at_ms: float,
                  replicas=None) -> bool:
        """A version committed at its origin replica at ``at_ms``.

        Called from the server-side put handlers (RU/quorum, master, MAV),
        which are the single points where a write becomes durable at its
        origin.  Returns ``False`` for a known version (one in the key's
        ledger), recording nothing: a handler installing there at once then
        reports that install; ``True`` when the origin's own install would
        record nothing.  ``replicas``, when given, is the key's replica set
        *as of commit time* (distinct sites, never mutated afterwards): only
        installs at those sites count toward t-visibility, so a later
        membership change re-routing old versions to brand-new owners (a
        bootstrapping node catching up on history that predates it) does not
        masquerade as replication lag.
        """
        ledger = self._ledger.get(key)
        if ledger is None:
            self._ledger[key] = [timestamp]
        elif timestamp > ledger[-1]:  # the common case: commits in order
            ledger.append(timestamp)
        else:
            at = bisect_left(ledger, timestamp)
            if ledger[at] == timestamp:
                return False
            ledger.insert(at, timestamp)
        owed = None if replicas is None else len(replicas) - (origin in replicas)
        if owed != 0:
            record = self._pending[(key, timestamp)] = _new_record(_PendingCommit)
            record.commit_ms, record.origin, record.installed = at_ms, origin, set()
            record.replicas, record.owed = replicas, owed
        self._commits += 1
        return True

    def on_install(self, key: str, timestamp, site: str,
                   at_ms: float) -> None:
        """``site`` installed a version into its good store at ``at_ms``.

        Installs at the origin itself and duplicate installs at the same
        replica record nothing, and sites outside the commit-time replica
        set (when one was recorded) are bootstrap catch-up, not lag.
        Versions the probe never saw commit (preloaded state, lock-SR
        commit application) are ignored — the probe measures replication
        lag of client writes, not bootstrap — and so is a replay to a
        version already forgotten as installed everywhere it went.
        """
        slot = (key, timestamp)
        record = self._pending.get(slot)
        if (record is None or site == record.origin or site in record.installed
                or record.replicas is not None and site not in record.replicas):
            return
        record.installed.add(site)
        if len(record.installed) == record.owed:
            del self._pending[slot]
        self._t_visibility.observe(record.commit_ms, at_ms - record.commit_ms)

    # -- read path -----------------------------------------------------------
    def on_read(self, key: str, timestamp, at_ms: float) -> None:
        """A client stack served a read of ``key`` at version ``timestamp``.

        k-staleness is the number of ledger timestamps strictly newer than
        the served version; ``timestamp=None`` (a read that found nothing)
        is behind every committed version of the key.
        """
        ledger = self._ledger.get(key)
        if not ledger:
            k = 0
        elif timestamp is None:
            k = len(ledger)
        elif timestamp >= ledger[-1]:  # the common case: the freshest version
            k = 0
        else:
            k = len(ledger) - bisect_right(ledger, timestamp)
        self._k_staleness.observe(at_ms, float(k))
