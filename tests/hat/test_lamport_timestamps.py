"""Regression tests: client timestamps follow the Lamport receive rule.

A client that reads a version must never install a later write with a
lower timestamp — otherwise last-writer-wins silently discards the write.
The rule has two halves:

* **witness** — every observed read advances the client's sequence
  counter past the observed timestamp;
* **lazy/refreshed draw** — the transaction's write timestamp is drawn
  (or redrawn) at the moment a write installs, so reads that happen
  before it — including reads *after* an early draw forced by a
  buffered-write echo — are always reflected.

The scenarios below preload the store through a separate loader client
(whose sequence counter runs ahead), then check that a fresh client's
writes still win LWW over what it read.
"""

import pytest

from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction
from repro.workloads.base import WorkloadFactory, run_preload
from txn import run_txn


class _Preload(WorkloadFactory):
    """Pump the loader's sequence counter with many small transactions."""

    settle_ms = 300.0

    def build(self, seed, session_id):
        raise AssertionError("preload only")

    def initial_transactions(self):
        transactions = [Transaction([Operation.write(f"pad{i}", i)])
                        for i in range(20)]
        transactions.append(Transaction([Operation.write("x", "old"),
                                         Operation.write("y", "old")]))
        return transactions


def preloaded_testbed():
    testbed = build_testbed(Scenario(regions=["VA"], servers_per_cluster=2))
    run_preload(testbed, _Preload())
    return testbed


@pytest.mark.parametrize("protocol", ["eventual", "read-committed", "mav",
                                      "causal", "quorum"])
def test_first_write_after_a_read_wins_lww_over_the_preload(protocol):
    """A fresh client's very first transaction reads a preloaded version
    (high sequence) and then overwrites it; the write must stick."""
    testbed = preloaded_testbed()
    client = testbed.make_client(protocol)
    result = run_txn(testbed, client, [
        Operation.read("x"),
        Operation.derived_write(lambda reads: ("x", f"{reads['x']}+new")),
    ])
    assert result.committed
    reader = testbed.make_client(protocol)
    check = run_txn(testbed, reader, [Operation.read("x")])
    assert check.value_read("x") == "old+new"


@pytest.mark.parametrize("protocol", ["read-committed", "mav"])
def test_buffered_echo_does_not_freeze_a_stale_timestamp(protocol):
    """[write x, read x, read y]: the read of the client's own buffered
    write forces an early timestamp draw; the later read of y witnesses
    the preload's higher sequence, and the flush must redraw — otherwise
    the committed write of x loses LWW and becomes invisible."""
    testbed = preloaded_testbed()
    client = testbed.make_client(protocol)
    result = run_txn(testbed, client, [
        Operation.write("x", "new"),
        Operation.read("x"),   # served from the write buffer (early draw)
        Operation.read("y"),   # witnesses the preload's higher sequence
    ])
    assert result.committed
    assert result.value_read("x") == "new"
    reader = testbed.make_client(protocol)
    check = run_txn(testbed, reader, [Operation.read("x")])
    assert check.value_read("x") == "new"


def test_direct_writes_interleaved_with_reads_stay_visible():
    """eventual applies writes immediately: a write after a later-witnessing
    read must refresh its timestamp rather than reuse the first draw."""
    testbed = preloaded_testbed()
    client = testbed.make_client("eventual")
    result = run_txn(testbed, client, [
        Operation.read("pad0"),            # low-ish witness
        Operation.write("scratch", 1),     # first draw
        Operation.read("y"),               # higher witness
        Operation.derived_write(lambda reads: ("y", "updated")),
    ])
    assert result.committed
    check = run_txn(testbed, testbed.make_client("eventual"),
                    [Operation.read("y")])
    assert check.value_read("y") == "updated"


def test_read_only_transactions_still_get_a_timestamp():
    testbed = preloaded_testbed()
    for protocol in ("eventual", "mav", "quorum"):
        result = run_txn(testbed, testbed.make_client(protocol),
                         [Operation.read("x")])
        assert result.committed
        assert result.timestamp is not None
