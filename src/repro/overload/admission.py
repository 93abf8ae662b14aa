"""Server-side admission control: a bounded queue with adaptive-LIFO shedding.

An unbounded FIFO converts overload into latency; latency past the client
deadline converts served work into *wasted* work (the client already gave
up), which is the sustaining feedback of a metastable failure.  Admission
control converts overload into explicit, cheap ``Overloaded`` rejections
instead.  A server built with a ``max_queue_depth`` sheds adaptive-LIFO, the
policy Facebook described for request queues behind breakers ("Fail at
Scale", CACM 2015): on overflow it evicts the *oldest* queued request (its
client has waited longest and is the most likely to have given up) and
admits the newcomer; while the queue is deeper than half its bound it serves
newest-first, so fresh requests see low latency while the backlog drains.

Only *foreground* (client-RPC) kinds, :data:`FOREGROUND_KINDS`, are ever
shed.  Background traffic — anti-entropy pushes, MAV sibling notifications,
replication — is exempt: those messages are one-way obligations whose loss
would silently diverge replicas, and their capacity demand is exactly what
admission control protects foreground requests *from*.
"""

from __future__ import annotations

from typing import FrozenSet

__all__ = ["FOREGROUND_KINDS"]

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
