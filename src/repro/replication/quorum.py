"""Quorum assembly: resolve once k of n futures succeed.

Section 6.3 benchmarks "a variant of quorum-based replication as in Dynamo,
where clients sent requests to all replicas, which completed as soon as a
majority of servers responded (guaranteeing regular semantics)".
"""

from __future__ import annotations

from typing import Iterable, List

from repro.errors import UnavailableError
from repro.sim.events import PENDING, Environment, Future


def quorum_of(env: Environment, futures: Iterable[Future], required: int) -> Future:
    """Return a future resolving with the first ``required`` successful values.

    Fails with :class:`UnavailableError` as soon as enough inputs have failed
    that ``required`` successes can no longer be reached (e.g. a partition cut
    off the majority).
    """
    futures = list(futures)
    result = env.future()
    if required <= 0:
        result.succeed([])
        return result
    if required > len(futures):
        result.fail(UnavailableError(
            f"quorum of {required} requested from only {len(futures)} replicas"
        ))
        return result

    successes: List[object] = []
    failures: List[BaseException] = []

    def _callback(resolved: Future) -> None:
        if result._value is not PENDING:
            return
        if resolved.ok:
            successes.append(resolved.value)
            if len(successes) >= required:
                result.succeed(list(successes))
        else:
            failures.append(resolved.value)
            if len(futures) - len(failures) < required:
                result.fail(UnavailableError(
                    f"quorum unreachable: needed {required}, "
                    f"{len(failures)} of {len(futures)} replicas failed"
                ))

    for future in futures:
        future.add_callback(_callback)
    return result
