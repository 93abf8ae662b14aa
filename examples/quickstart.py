#!/usr/bin/env python3
"""Quickstart: run transactions against a geo-replicated HAT deployment.

Builds a two-datacenter simulated cluster (Virginia + Oregon), runs the same
multi-item transaction through a HAT protocol (MAV) and through the
coordinated ``master`` configuration, and prints the latency difference —
the paper's headline observation in miniature.

Run with::

    python examples/quickstart.py
"""

from repro.hat import Operation, Scenario, Transaction, build_testbed
from repro.taxonomy.models import availability_summary


def run_transfer(testbed, protocol):
    """A small 'transfer' transaction: write two accounts, read them back."""
    client = testbed.make_client(protocol)
    deposit = Transaction([
        Operation.write("account:alice", 100),
        Operation.write("account:bob", 200),
    ])
    result = testbed.env.run_until_complete(client.execute(deposit))
    # Give asynchronous replication / MAV stabilization a moment, then read.
    testbed.run(2000.0)
    audit = Transaction([
        Operation.read("account:alice"),
        Operation.read("account:bob"),
    ])
    audit_result = testbed.env.run_until_complete(client.execute(audit))
    return result, audit_result


def main():
    print("Highly Available Transactions — quickstart")
    print("=" * 60)

    for protocol in ("mav", "master"):
        # A fresh deployment per protocol: two clusters of three servers,
        # one in Virginia and one in Oregon (Table 1c: ~83 ms RTT apart).
        testbed = build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=3))
        write_result, audit_result = run_transfer(testbed, protocol)
        print(f"\nprotocol: {protocol}")
        print(f"  committed:        {write_result.committed}")
        print(f"  write latency:    {write_result.latency_ms:8.2f} ms")
        print(f"  audit latency:    {audit_result.latency_ms:8.2f} ms")
        print(f"  alice balance:    {audit_result.value_read('account:alice')}")
        print(f"  bob balance:      {audit_result.value_read('account:bob')}")

    print("\nWhy the difference?  The HAT protocol talks only to replicas in the")
    print("client's own datacenter; the master protocol pays a wide-area round")
    print("trip whenever a key's master lives in the other region.")

    print("\nTable 3 (availability classification of consistency models):")
    print(availability_summary().as_table())


if __name__ == "__main__":
    main()
