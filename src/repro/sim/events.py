"""Event loop, simulated clock, and futures for the simulation kernel.

This module is the simulator's hottest code: every message delivery, RPC
completion, and process resumption passes through :meth:`Environment.run`.
Three structural choices keep it fast without changing observable behaviour:

* ``__slots__`` on :class:`Future` (and :class:`Process` in
  :mod:`repro.sim.process`) removes a dict allocation per event,
* zero-delay callbacks — a future's waiters and a process's start (a load
  driver's; its transactions run on its process) — go to a plain FIFO deque
  instead of the ``heapq``; the deque shares the heap's sequence counter and
  the dispatcher always runs whichever of (deque head, heap top) has the
  smaller ``(when, seq)``, so the execution order is *bit-identical* to a
  pure-heap kernel (seeded runs reproduce exactly) —
  except for an RPC reply, whose delivery event runs the waiters in place,
* the :meth:`Environment.run` loop is inlined (no per-event ``step()`` call,
  locals bound outside the loop).
"""

from __future__ import annotations

import gc
from collections import deque
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.errors import SimulationError

#: The value of a future that has not resolved yet (``future._value is
#: PENDING`` asks whether it has).
PENDING = object()


class Future:
    """A one-shot event.

    A future starts *pending*; it is resolved exactly once with either
    :meth:`succeed` or :meth:`fail`.  Callbacks registered before resolution
    run when the future resolves; callbacks registered afterwards run
    immediately.  Processes wait on futures by ``yield``-ing them.
    """

    __slots__ = ("env", "_value", "_failed", "_callbacks")

    def __init__(self, env: "Environment"):
        self.env = env
        self._value: Any = PENDING
        self._failed = False
        self._callbacks: List[Callable[["Future"], None]] = []

    # -- inspection -------------------------------------------------------
    @property
    def ok(self) -> bool:
        """``True`` when the future resolved successfully."""
        return self._value is not PENDING and not self._failed

    @property
    def value(self) -> Any:
        """The resolution value (or the exception if the future failed)."""
        if self._value is PENDING:
            raise SimulationError("future has not been resolved yet")
        return self._value

    # -- resolution -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Future":
        """Resolve the future successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError("future resolved twice")
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            # Inlined schedule_now: resolution is a hot scheduling site
            # (once per process hop).  The waiter runs from the immediate
            # deque, never inside this frame; only ``Network._deliver``, a
            # top-level event, resolves a reply and runs its waiters in place.
            env = self.env
            immediate = env._immediate
            now = env._now
            seq = env._next_seq
            for callback in callbacks:
                immediate.append((now, seq, callback, (self,)))
                seq += 1
            callbacks.clear()
            env._next_seq = seq
        return self

    def fail(self, exception: BaseException) -> "Future":
        """Resolve the future with an exception."""
        if not isinstance(exception, BaseException):
            raise SimulationError("Future.fail() requires an exception")
        # A failure is a resolution whose value is the exception.
        if self._value is PENDING:
            self._failed = True
        return self.succeed(exception)

    # -- callbacks --------------------------------------------------------
    def add_callback(self, callback: Callable[["Future"], None]) -> None:
        """Run ``callback(self)`` once the future resolves."""
        if self._value is not PENDING:
            self.env.schedule_now(callback, self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self._value is not PENDING:
            state = "failed" if self._failed else "ok"
        return f"<Future {state} at t={self.env.now:.3f}>"


class Environment:
    """The discrete-event loop and simulated clock.

    Time is a ``float`` in *milliseconds*: the paper reports RTTs and
    operation latencies in milliseconds, so using the same unit keeps the
    experiment code and the reported numbers aligned.
    """

    __slots__ = ("_now", "_seq", "_queue", "_immediate", "_next_seq",
                 "events_executed", "current_trace")

    def __init__(self):
        self._now = 0.0
        #: ``seq`` of the running event: with ``_now``, its place in the event
        #: order (a server's workers are timers kept outside the queue).
        self._seq = -1
        #: Delayed events: a heap of ``(when, seq, callback, args)``.
        self._queue: List[Tuple[float, int, Callable, tuple]] = []
        #: Zero-delay events, in the same tuple shape.  Entries are appended
        #: with the current time and an increasing seq, and time never goes
        #: backwards, so the deque is always sorted by ``(when, seq)``.
        self._immediate: deque = deque()
        self._next_seq = 0
        #: Total callbacks executed, for the benchmark ledger (events/sec).
        self.events_executed = 0
        #: Ambient trace context (see repro.obs): a process's own during its
        #: steps (a transaction's span from its start to its return), a served
        #: message's during dispatch, else None; the network stamps it on
        #: outbound messages.  Always None when tracing is off.
        self.current_trace = None

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    # -- scheduling -------------------------------------------------------
    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` milliseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay!r}")
        seq = self._next_seq
        self._next_seq = seq + 1
        if delay == 0.0:
            self._immediate.append((self._now, seq, callback, args))
        else:
            heappush(self._queue, (self._now + delay, seq, callback, args))

    def schedule_at(self, when: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at exactly ``when`` (a relative delay
        would land on ``now + (when - now)``, which can be an ulp off)."""
        if when < self._now:
            raise SimulationError(f"cannot schedule in the past: {when!r}")
        seq = self._next_seq
        self._next_seq = seq + 1
        heappush(self._queue, (when, seq, callback, args))

    def schedule_now(self, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` on the next tick (a zero-delay schedule)."""
        seq = self._next_seq
        self._next_seq = seq + 1
        self._immediate.append((self._now, seq, callback, args))

    def timeout(self, delay: float, value: Any = None) -> Future:
        """Return a future that resolves with ``value`` ``delay`` ms from now."""
        future = Future(self)
        self.schedule(delay, future.succeed, value)
        return future

    def future(self) -> Future:
        """Return a new pending future bound to this environment."""
        return Future(self)

    def process(self, generator) -> "Process":
        """Spawn a new coroutine process (see :mod:`repro.sim.process`)."""
        from repro.sim.process import Process

        return Process(self, generator)

    # -- execution --------------------------------------------------------
    def step(self) -> None:
        """Execute the next callback in ``(when, seq)`` order, advancing
        simulated time."""
        immediate, queue = self._immediate, self._queue
        if immediate and not (queue and queue[0] < immediate[0]):
            when, seq, callback, args = immediate.popleft()
        elif queue:
            when, seq, callback, args = heappop(queue)
        else:
            raise SimulationError("cannot step an empty event queue")
        self._now = when
        self._seq = seq
        self.events_executed += 1
        callback(*args)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue is empty or simulated time reaches ``until``.

        Returns the simulated time at which execution stopped.
        """
        if until is not None and until < self._now:
            raise SimulationError("cannot run until a time in the past")
        queue = self._queue
        immediate = self._immediate
        pop_heap = heappop
        pop_immediate = immediate.popleft
        horizon = float("inf") if until is None else until
        executed = 0
        try:
            while immediate or queue:
                if immediate and not (queue and queue[0] < immediate[0]):
                    # Immediate entries carry a past timestamp, so they
                    # can never exceed the horizon (which is >= now).
                    when, seq, callback, args = pop_immediate()
                else:
                    if queue[0][0] > horizon:
                        break
                    when, seq, callback, args = pop_heap(queue)
                self._now = when
                self._seq = seq
                executed += 1
                callback(*args)
        finally:
            self.events_executed += executed
        self._seq = self._next_seq  # all due by now ran: completions too
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_until_complete(self, future: Future, limit: float = 1e12) -> Any:
        """Run the loop until ``future`` resolves, then return its value.

        Raises the future's exception if it failed, and
        :class:`SimulationError` if the event queue drains first or the next
        event lies past ``limit`` (immediate events never do: they are due).
        """
        while future._value is PENDING:
            if not self._immediate:
                if not self._queue:
                    raise SimulationError(
                        "event queue drained before the awaited future resolved")
                if self._queue[0][0] > limit:
                    raise SimulationError(f"simulation exceeded time limit {limit}")
            self.step()
        if not future.ok:
            raise future.value
        return future.value

    @property
    def pending_events(self) -> int:
        """Number of callbacks waiting in the event queue."""
        return len(self._queue) + len(self._immediate)


#: Objects promoted by pauses since, and kept alive by, the last collect_promoted.
_promoted = _long_lived = 0


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause generational GC; decorates both load drivers and
    ``HistoryRecorder.build``.

    Both allocate millions of objects that stay live until they finish; GC
    passes over them cost ~15% of a run (~80% of a history build) and free
    nothing of note.  The outermost pause ends by handing every tracked
    object to the oldest generation unscanned (``gc.freeze()`` then
    ``gc.unfreeze()``, which zero the young count too).  CPython never
    counts objects so moved toward a full collection, and dropped testbeds
    are cyclic garbage: :func:`collect_promoted` frees them.
    """
    global _promoted
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            _promoted += gc.get_count()[0]
            gc.freeze()
            gc.unfreeze()
            gc.enable()


def collect_promoted() -> None:
    """A full collection once pauses promoted over a quarter of what the last
    one kept alive: CPython's own rule, for objects its tally never sees."""
    global _promoted, _long_lived
    if _promoted > _long_lived // 4:
        gc.collect()
        gc.freeze()
        _promoted, _long_lived = 0, gc.get_freeze_count()
        gc.unfreeze()
