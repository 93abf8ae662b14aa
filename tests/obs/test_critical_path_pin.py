"""The critical path attributes the same milliseconds to the same stages
whether a round trip's server side is a span of its own or attributes on
the RPC span.

The ``critical-path`` pin holds the per-stack, per-condition mean and p99
breakdowns of ``python -m repro.bench trace --quick`` (every committed
transaction, and those that overlapped a fault) as computed when each
served request still had a ``server:<kind>`` span under its ``rpc:<kind>``
span.  The RPC span now carries ``arrival_ms``, ``queue_wait_ms`` and
``service_ms`` itself; the decomposition must land on the same values in
every segment.
"""

from repro.bench.__main__ import ARTIFACTS


def test_breakdowns_match_the_two_span_attribution(assert_pin):
    payload = ARTIFACTS["trace"].run(True, None).payload
    breakdowns = {f"{stack['protocol']}/{stack['condition']}":
                  {path: stack[path] for path in ("critical_path",
                                                  "faulted_critical_path")}
                  for stack in payload["stacks"]}
    assert_pin("critical-path", breakdowns)
