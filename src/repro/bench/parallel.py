"""Parallel execution of independent seeded simulations.

Every :class:`~repro.bench.runner.RunConfig` describes a *complete*,
deterministic simulation: the testbed, workload streams, and fault schedule
are all pure functions of the config (and its seeds), and nothing is shared
between two runs.  A multi-protocol sweep is therefore embarrassingly
parallel — this module fans the runs across a ``ProcessPoolExecutor`` and
merges the results back **in input order**, so a parallel sweep is
bit-identical to the sequential one (the determinism property tests pin
this).

``jobs`` semantics, used uniformly by every experiment entry point and the
``python -m repro.bench --jobs N`` flag:

* ``None`` / ``0`` / ``1`` — run sequentially in this process (the default);
* ``N > 1`` — run up to ``N`` simulations concurrently in worker processes.

Workers inherit the parent's environment (``fork`` on Linux); results and
configs only need to be picklable, which every dataclass in the benchmark
layer is.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence

from repro.bench.metrics import RunStats
from repro.bench.runner import RunConfig, run_workload


def run_tasks(worker: Callable, task_args: Sequence[tuple],
              jobs: Optional[int] = None) -> List[object]:
    """Run ``worker(*args)`` for every argument tuple, preserving order.

    The deterministic-merge primitive behind every parallel sweep: results
    come back indexed by input position no matter which worker finished
    first, so callers can zip them against their task descriptions.
    """
    tasks = list(task_args)
    if jobs is None or jobs <= 1 or len(tasks) <= 1:
        return [worker(*args) for args in tasks]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = [pool.submit(worker, *args) for args in tasks]
        return [future.result() for future in futures]


def run_configs(configs: Sequence[RunConfig],
                jobs: Optional[int] = None) -> List[RunStats]:
    """Execute benchmark configs (possibly in parallel), in input order."""
    return run_tasks(run_workload, [(config,) for config in configs],
                     jobs=jobs)
