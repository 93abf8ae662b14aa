"""Open-loop load generation: arrival processes, session pools, sketches.

* :mod:`repro.loadgen.arrivals` — seeded deterministic arrival processes
  (Poisson, bursty MMPP, linear ramp),
* :mod:`repro.loadgen.sessions` — bounded pools of reusable protocol
  sessions with queue-depth accounting,
* :mod:`repro.loadgen.sketch` — a mergeable streaming latency-quantile
  digest (bounded memory on the hot path),
* :mod:`repro.loadgen.engine` — the open-loop run loop tying them
  together: 10^6 logical users at O(pool size) memory.
"""

from repro.loadgen.arrivals import (
    ArrivalProcess,
    MMPPArrivals,
    PoissonArrivals,
    RampArrivals,
)
from repro.loadgen.engine import (
    BacklogSample,
    OpenLoopConfig,
    OpenLoopStats,
    run_open_loop,
)
from repro.loadgen.sessions import PendingRequest, SessionPool
from repro.loadgen.sketch import LatencyDigest

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "RampArrivals",
    "LatencyDigest",
    "SessionPool",
    "PendingRequest",
    "OpenLoopConfig",
    "OpenLoopStats",
    "BacklogSample",
    "run_open_loop",
]
