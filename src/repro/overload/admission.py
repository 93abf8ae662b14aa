"""Server-side admission control: bounded queues with pluggable shedding.

An unbounded FIFO converts overload into latency; latency past the client
deadline converts served work into *wasted* work (the client already gave
up), which is the sustaining feedback of a metastable failure.  Admission
control converts overload into explicit, cheap ``Overloaded`` rejections
instead.  Three policies, in increasing sophistication:

* ``drop-tail`` — reject the arriving request when the queue is at its
  bound.  Simple, but under sustained overload the queue stays full of
  old requests whose clients have timed out.
* ``adaptive-lifo`` — on overflow, evict the *oldest* queued request (its
  client has waited longest and is the most likely to have given up) and
  admit the newcomer; when the queue is deeper than ``lifo_depth``, serve
  newest-first so fresh requests see low latency while the backlog drains.
  This is the policy Facebook described for request queues behind
  breakers ("Fail at Scale", CACM 2015).
* ``codel`` — drop-tail at the bound, plus a deadline-aware dequeue check
  in the style of CoDel: a request whose queue wait already exceeds
  ``codel_target_ms`` is rejected at dequeue time for a token cost
  instead of being served — its client's deadline has effectively passed,
  so serving it would be pure wasted work.

Only *foreground* (client-RPC) kinds are ever shed.  Background traffic —
anti-entropy pushes, MAV sibling notifications, replication — is exempt:
those messages are one-way obligations whose loss would silently diverge
replicas, and their capacity demand is exactly what admission control
protects foreground requests *from*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet

from repro.errors import ReproError

__all__ = ["ADMISSION_POLICIES", "AdmissionConfig", "FOREGROUND_KINDS"]

ADMISSION_POLICIES = ("drop-tail", "adaptive-lifo", "codel")

#: Client-facing request kinds a server may reject under overload.  Lock
#: releases and 2PC commit/abort are deliberately absent: they are cleanup
#: that must run or locks and prepared state would be stranded.
FOREGROUND_KINDS: FrozenSet[str] = frozenset({
    "ru.put", "ru.get", "ru.scan",
    "mav.put", "mav.get",
    "master.put", "master.get",
    "quorum.put", "quorum.get",
    "lock.acquire",
})


@dataclass(frozen=True)
class AdmissionConfig:
    """Tunables for one server's admission controller."""

    #: Foreground requests queued beyond this bound are shed.
    max_queue_depth: int = 64
    #: One of :data:`ADMISSION_POLICIES`.
    policy: str = "drop-tail"
    #: ``adaptive-lifo`` serves newest-first while the queue is deeper
    #: than this (``None`` = half the bound).
    lifo_depth: int = None  # type: ignore[assignment]
    #: ``codel``: a request that waited longer than this is rejected at
    #: dequeue instead of served.
    codel_target_ms: float = 5.0
    #: Kinds eligible for shedding.
    sheddable_kinds: FrozenSet[str] = field(default_factory=lambda: FOREGROUND_KINDS)

    def __post_init__(self) -> None:
        if self.policy not in ADMISSION_POLICIES:
            raise ReproError(
                f"unknown admission policy {self.policy!r}; "
                f"expected one of {ADMISSION_POLICIES}")
        if self.max_queue_depth < 1:
            raise ReproError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth!r}")
        if self.lifo_depth is None:
            object.__setattr__(self, "lifo_depth", self.max_queue_depth // 2)
        if self.codel_target_ms <= 0.0:
            raise ReproError(
                f"codel_target_ms must be > 0, got {self.codel_target_ms!r}")
