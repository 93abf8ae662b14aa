"""The pluggable workload interface the benchmark runner drives.

Historically the closed-loop runner hard-coded the YCSB generator; this
module abstracts the two roles it actually needs:

* :class:`Workload` — a per-client transaction stream.  The runner calls
  :meth:`Workload.next_transaction` for the next transaction to issue and
  feeds every finished :class:`~repro.hat.transaction.TransactionResult`
  back through :meth:`Workload.observe`, so *stateful* drivers (TPC-C's
  application-side counter mirror) can track what actually committed
  rather than assuming every generated transaction succeeds.
* :class:`WorkloadFactory` — builds one :class:`Workload` per client and
  optionally describes a preload: :meth:`WorkloadFactory.initial_transactions`
  returns transactions that populate the store before the measured run, and
  :attr:`WorkloadFactory.settle_ms` is how long to let anti-entropy
  propagate the preload to every replica before the clock starts.

``RunConfig.workload`` accepts anything satisfying the factory shape —
:class:`~repro.workloads.ycsb.YCSBConfig` (stateless, no preload) and
:class:`~repro.workloads.tpcc_driver.TPCCDriverFactory` both do.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Optional

from repro.errors import WorkloadError
from repro.hat.transaction import Transaction, TransactionResult


class Workload(abc.ABC):
    """One client's transaction stream (with optional result feedback)."""

    #: Session identifier stamped onto generated transactions.
    session_id: Optional[int] = None

    @abc.abstractmethod
    def next_transaction(self) -> Transaction:
        """The next transaction this client should issue."""

    def observe(self, result: TransactionResult) -> None:
        """Feedback hook: called once per finished transaction.

        Stateless generators ignore it; stateful drivers use it to update
        application-side state from what *actually* committed.
        """
        return None


class ArrivalSource(abc.ABC):
    """Stateless per-arrival transaction generation for open-loop load.

    The closed-loop :class:`Workload` carries per-client state, which is
    exactly what a million-user open-loop run cannot afford (one stream
    object per logical user).  An arrival source instead derives each
    transaction deterministically from ``(seed, user_id, arrival_index)``
    alone, so the engine holds O(1) generator state no matter how many
    users the arrival process draws from.
    """

    @abc.abstractmethod
    def transaction_for(self, user_id: int, arrival_index: int) -> Transaction:
        """The transaction issued by ``user_id``'s ``arrival_index``-th
        arrival.  ``session_id`` is stamped later by the pool slot that
        executes it."""


class WorkloadFactory(abc.ABC):
    """Builds per-client workloads (and optionally preloads the store)."""

    #: Simulated milliseconds to wait after the preload so anti-entropy
    #: replicates it everywhere before the measured run starts.
    settle_ms: float = 0.0

    @abc.abstractmethod
    def build(self, seed: int, session_id: int) -> Workload:
        """A workload for the client identified by ``session_id``."""

    def initial_transactions(self) -> List[Transaction]:
        """Transactions that populate the initial database contents."""
        return []


def as_workload_factory(workload: object) -> object:
    """Validate that ``workload`` exposes the factory shape.

    Accepts any object with a ``build(seed, session_id)`` method — the
    :class:`WorkloadFactory` ABC is a convenience, not a requirement — so
    existing configs keep working without inheriting from it.
    """
    if not callable(getattr(workload, "build", None)):
        raise WorkloadError(
            f"{type(workload).__name__} is not a workload factory: expected a "
            "build(seed, session_id) method (see repro.workloads.base)"
        )
    return workload


def as_arrival_source(workload: object, seed: int) -> ArrivalSource:
    """Build the :class:`ArrivalSource` of an open-loop workload factory.

    The factory must expose ``arrival_source(seed)`` — stateless per-user
    generation (:class:`~repro.workloads.ycsb.YCSBConfig` does).
    """
    maker = getattr(workload, "arrival_source", None)
    if not callable(maker):
        raise WorkloadError(
            f"{type(workload).__name__} cannot drive an open-loop run: "
            "expected an arrival_source(seed) method (see repro.workloads.base)")
    return maker(seed)


def run_preload(testbed, factory, protocol: str = "eventual") -> int:
    """Execute a factory's preload through ``testbed`` and let it settle.

    Loads through an ``eventual`` client (writes apply immediately at the
    sticky replica; anti-entropy replicates them), then advances the clock
    by the factory's ``settle_ms`` so every replica — including the key
    masters the coordinated baselines read — converges on the initial
    state.  The loader deliberately carries no history recorder: preload
    writes are background state, not part of the audited run.  Returns the
    number of preload transactions executed.
    """
    initial: Iterable[Transaction] = []
    if hasattr(factory, "initial_transactions"):
        initial = list(factory.initial_transactions())
    if not initial:
        return 0
    loader = testbed.make_client(protocol,
                                 home_cluster=testbed.config.cluster_names[0])
    for transaction in initial:
        testbed.env.run_until_complete(loader.execute(transaction))
    settle_ms = float(getattr(factory, "settle_ms", 0.0) or 0.0)
    if settle_ms > 0.0:
        testbed.env.run(until=testbed.env.now + settle_ms)
    return len(list(initial))
