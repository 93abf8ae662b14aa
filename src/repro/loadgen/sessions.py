"""Bounded session pools: 10^6 logical users over O(pool) protocol clients.

The closed-loop runner builds one concrete protocol client per logical
client, which caps "heavy traffic" at a few thousand clients.  Open-loop
load separates the two: logical users exist only as integers drawn by the
arrival process, while actual protocol work is multiplexed over a small
fixed pool of reusable *sessions* (one protocol client each).  An arrival
that finds every session busy waits in a FIFO queue — the queue depth is
the overload signal the saturation experiment watches — or is shed when the
queue is full, so memory stays bounded by ``size + max_queue`` no matter
how many users the run simulates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.errors import ReproError

__all__ = ["PendingRequest", "SessionPool"]


@dataclass(slots=True)
class PendingRequest:
    """One admitted arrival waiting for (or holding) a session."""

    arrival_ms: float
    user_id: int
    transaction: Any
    #: Telemetry attempt handle (opaque to the pool), if telemetry is on.
    attempt: Any = None


class SessionPool:
    """A fixed set of protocol clients fed from a bounded FIFO queue.

    One pool serves one cluster: every session is a protocol client homed
    there, built once at pool construction and reused for every request it
    executes — session guarantees therefore attach to pool *slots*, exactly
    like connection pooling in front of a real store.  ``submit`` admits a
    request (or sheds it when the queue is at ``max_queue``); idle worker
    processes wake in slot order and run the caller's handler.
    """

    def __init__(self, testbed, protocol: str, cluster_name: str,
                 size: int, recorder: Optional[object] = None,
                 max_queue: Optional[int] = None,
                 first_session_id: int = 0,
                 client_kwargs: Optional[Dict[str, Any]] = None):
        if size < 1:
            raise ReproError(f"session pool needs at least one session (got {size})")
        if max_queue is not None and max_queue < 0:
            raise ReproError(f"max_queue must be >= 0 (got {max_queue})")
        self.env = testbed.env
        self.cluster_name = cluster_name
        self.size = size
        self.max_queue = max_queue
        self.session_ids = [first_session_id + slot for slot in range(size)]
        self.sessions = [
            testbed.make_client(protocol, home_cluster=cluster_name,
                                recorder=recorder, **(client_kwargs or {}))
            for _ in range(size)
        ]
        self.queue: Deque[PendingRequest] = deque()
        self.busy = 0
        #: Lifetime counters (the run's offered/served/shed accounting).
        self.admitted = 0
        self.served = 0
        self.shed = 0
        self.queue_peak = 0
        self._idle: List[Any] = []  # futures of parked workers, LIFO
        self._started = False

    # -- submission (the dispatcher side) ----------------------------------
    def submit(self, request: PendingRequest) -> bool:
        """Admit ``request`` (False = shed: the queue is at its bound)."""
        if self.max_queue is not None and len(self.queue) >= self.max_queue:
            self.shed += 1
            return False
        self.admitted += 1
        self.queue.append(request)
        if len(self.queue) > self.queue_peak:
            self.queue_peak = len(self.queue)
        if self._idle:
            self._idle.pop().succeed()
        return True

    @property
    def depth(self) -> int:
        """Requests admitted but not yet picked up by a session."""
        return len(self.queue)

    @property
    def backlog(self) -> int:
        """Requests admitted but not yet completed (queued + in service)."""
        return len(self.queue) + self.busy

    # -- service (the session side) ----------------------------------------
    def start(self, handler: Callable) -> None:
        """Spawn one worker process per session.

        ``handler(client, session_id, request)`` is a generator the worker
        delegates to (it may ``yield`` futures); the pool tracks busy/served
        counts around it.
        """
        if self._started:
            raise ReproError("session pool already started")
        self._started = True
        for slot, client in enumerate(self.sessions):
            self.env.process(self._worker(client, self.session_ids[slot],
                                          handler))

    def _worker(self, client, session_id: int, handler: Callable):
        while True:
            while not self.queue:
                park = self.env.future()
                self._idle.append(park)
                yield park
            request = self.queue.popleft()
            self.busy += 1
            try:
                yield from handler(client, session_id, request)
            finally:
                self.busy -= 1
                self.served += 1
