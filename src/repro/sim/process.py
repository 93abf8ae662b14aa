"""Generator-based coroutine processes for the simulation kernel.

A process wraps a generator.  The generator may ``yield``:

* a :class:`~repro.sim.events.Future` — the process suspends until the future
  resolves; the future's value is sent back into the generator (or its
  exception is thrown into it),
* another :class:`Process` — processes are futures, so waiting for a child
  process to finish is the same as waiting for a future,
* a number — shorthand for ``env.timeout(number)``.

The process itself is a :class:`Future` that resolves with the generator's
return value, so parents can wait for children and failures propagate.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, List

from repro.errors import SimulationError
from repro.sim.events import PENDING, Environment, Future


class Process(Future):
    """Drives a generator as a simulated process."""

    __slots__ = ("_generator", "trace")

    def __init__(self, env: Environment, generator: Generator):
        if not hasattr(generator, "send"):
            raise SimulationError("Process requires a generator (did you "
                                  "forget to call the generator function?)")
        super().__init__(env)
        self._generator = generator
        #: Published as ``env.current_trace`` for each step: what the last
        #: step left there (a traced transaction's span while it runs).
        self.trace = None
        # Start the process on the next tick so construction never reenters
        # user code synchronously.
        env.schedule_now(self._resume, None)

    # -- internal machinery -----------------------------------------------
    def _resume(self, resolved: Future | None) -> None:
        """One generator step: the callback of whatever the process awaits.

        ``resolved`` is the awaited future (its value is sent into the
        generator, its exception thrown); ``None`` starts the process.
        """
        value = exception = None
        if resolved is not None:
            if resolved._failed:
                exception = resolved._value
            else:
                value = resolved._value
        # The ambient trace context: published for the step, and what the
        # step leaves in ``env.current_trace`` is the process's context for
        # its next one.  No step runs nested inside another (resolving a
        # future enqueues its waiters; a reply's ``Network._deliver``, which
        # runs them in place, is a top-level event), so what a step sends is
        # attributed exactly to this trace, and no other step sees it.
        env = self.env
        env.current_trace = self.trace
        try:
            if exception is not None:
                target = self._generator.throw(exception)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via future
            self.fail(exc)
            return
        finally:
            self.trace = env.current_trace
            env.current_trace = None
        if not isinstance(target, Future):
            if not isinstance(target, (int, float)):
                raise SimulationError(
                    f"process yielded an unsupported value: {target!r} "
                    "(expected a Future, Process, or a numeric delay)")
            target = env.timeout(float(target))
        # Future.add_callback, in place: once per wait of every process.
        if target._value is PENDING:
            target._callbacks.append(self._resume)
        else:
            env.schedule_now(self._resume, target)


def all_of(env: Environment, futures: Iterable[Future]) -> Future:
    """Return a future that resolves once every input future resolves.

    The result is the list of values in input order.  If any input fails,
    the combined future fails with the first failure.
    """
    futures = list(futures)
    result = env.future()
    if not futures:
        result.succeed([])
        return result
    remaining = [len(futures)]
    values: List[Any] = [None] * len(futures)

    def _make_callback(index: int):
        def _callback(resolved: Future) -> None:
            if result._value is not PENDING:
                return
            if resolved._failed:
                result.fail(resolved._value)
                return
            values[index] = resolved._value
            remaining[0] -= 1
            if remaining[0] == 0:
                result.succeed(list(values))

        return _callback

    for index, future in enumerate(futures):
        future.add_callback(_make_callback(index))
    return result
