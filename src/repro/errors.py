"""Exception hierarchy shared across the HAT reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.  The
transaction-facing errors mirror the paper's vocabulary: a transaction either
*commits*, *internally aborts* (its own choice, e.g. an integrity constraint),
or *externally aborts* (the system could not complete it, e.g. an unreachable
replica under a network partition).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulation kernel is misused."""


class NetworkError(ReproError):
    """Base class for simulated network failures."""


class RequestTimeout(NetworkError):
    """Raised when an RPC does not receive a response within its deadline."""


class StorageError(ReproError):
    """Base class for storage-engine failures."""


class TransactionError(ReproError):
    """Base class for transaction-level failures."""


class TransactionAborted(TransactionError):
    """Base class for any transaction abort."""

    #: ``True`` when the abort was chosen by the transaction itself
    #: (integrity constraint, explicit ``abort()``), ``False`` when the
    #: system aborted it (timeouts, unreachable replicas, deadlock victim).
    internal = False



class ExternalAbort(TransactionAborted):
    """The system aborted the transaction (paper Section 4.2)."""

    internal = False


class UnavailableError(ExternalAbort):
    """An operation could not reach the replicas it required.

    HAT protocols never raise this when a replica for every accessed item is
    reachable; non-HAT protocols (master, two-phase locking, quorum) raise it
    whenever a partition separates the client from the master/quorum.
    """


class OverloadedError(ExternalAbort):
    """A server (or the client's own circuit breaker) shed the request.

    Raised when admission control rejects a request at a bounded queue, or
    when an open circuit breaker fails an attempt fast.  An explicit
    overload signal is the load-shedding contract: the client learns
    *immediately* that the system is saturated instead of discovering it
    via a timed-out RPC that still consumed server capacity.
    """


class IsolationError(ReproError):
    """Raised by the Adya checker when a history is malformed."""


class TaxonomyError(ReproError):
    """Raised for unknown models or invalid lattice queries."""


class WorkloadError(ReproError):
    """Raised when a workload generator is configured inconsistently."""
