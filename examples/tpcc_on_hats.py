#!/usr/bin/env python3
"""TPC-C on Highly Available Transactions (the paper's Section 6.2).

Four parts:

1. The static requirements analysis: which of the five TPC-C transactions can
   execute as HATs, and what each one needs.
2. A live run of the TPC-C mix through the MAV configuration, with the TPC-C
   consistency conditions checked afterwards.
3. The failure case: concurrent New-Order transactions on opposite sides of a
   network partition keep committing (availability!) but break the
   *sequential* order-id requirement — exactly the coordination HATs cannot
   provide.
4. The measurement: the pluggable TPC-C driver run closed-loop through the
   simulated cluster under a weak HAT stack and under serializable locking,
   with the recorded histories audited for duplicate order ids and double
   deliveries (the ``tpcc-sim`` bench artifact, in miniature).

Run with::

    python examples/tpcc_on_hats.py
"""

from repro.adya.history import HistoryRecorder
from repro.bench.runner import RunConfig, run_workload
from repro.hat import Scenario, build_testbed
from repro.workloads.tpcc import (
    TPCCConfig,
    TPCCWorkload,
    initial_load_transactions,
)
from repro.workloads.tpcc_analysis import (
    check_sequential_order_ids,
    check_state,
    check_unique_order_ids,
    hat_compliance_table,
)
from repro.workloads.tpcc_audit import audit_tpcc_history
from repro.workloads.tpcc_driver import TPCCDriverFactory


def run_tpcc_mix(transactions=150):
    testbed = build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))
    workload = TPCCWorkload(TPCCConfig(warehouses=2, districts_per_warehouse=2,
                                       customers_per_district=10, items=50), seed=42)
    client = testbed.make_client("mav")
    for txn in initial_load_transactions(workload.config):
        testbed.env.run_until_complete(client.execute(txn))
    committed = 0
    for _ in range(transactions):
        result = testbed.env.run_until_complete(
            client.execute(workload.next_transaction()))
        committed += int(result.committed)
    return workload, committed


def partitioned_new_orders(per_side=15):
    testbed = build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))
    testbed.partition_regions([["VA"], ["OR"]])
    issued = []
    for cluster in testbed.config.cluster_names:
        client = testbed.make_client("read-committed", home_cluster=cluster)
        side = TPCCWorkload(TPCCConfig(warehouses=1, districts_per_warehouse=1,
                                       customers_per_district=10, items=50), seed=7)
        for _ in range(per_side):
            result = testbed.env.run_until_complete(
                client.execute(side.new_order(warehouse=1, district=1)))
            assert result.committed, "HATs must stay available under the partition"
        issued.extend(side.state.issued_order_ids[(1, 1)])
    return issued


def tpcc_through_the_cluster(protocol, duration_ms=800.0):
    """Closed-loop TPC-C through the simulated cluster, history audited."""
    scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2)
    testbed = build_testbed(scenario)
    recorder = HistoryRecorder()
    factory = TPCCDriverFactory()
    config = RunConfig(protocol=protocol, scenario=scenario, workload=factory,
                       clients_per_cluster=2, duration_ms=duration_ms,
                       warmup_ms=0.0, seed=3)
    stats = run_workload(config, testbed=testbed, recorder=recorder)
    return stats, audit_tpcc_history(recorder.build())


def main():
    print("Section 6.2 — TPC-C requirements analysis")
    print("=" * 64)
    print(hat_compliance_table())

    print("\nRunning the TPC-C mix through the MAV configuration...")
    workload, committed = run_tpcc_mix()
    report = check_state(workload.state)
    print(f"  transactions committed:                    {committed}")
    print(f"  Consistency Condition 1 (W_YTD = sum D_YTD) violations: "
          f"{len(report['condition_1'])}")
    print(f"  duplicate order ids:                       {len(report['unique_ids'])}")
    print(f"  negative stock levels:                     "
          f"{len(report['non_negative_stock'])}")

    print("\nConcurrent New-Orders across a network partition...")
    issued = partitioned_new_orders()
    sequential = check_sequential_order_ids({(1, 1): issued})
    unique = check_unique_order_ids({(1, 1): issued})
    print(f"  orders committed during the partition:     {len(issued)}")
    print(f"  ids assigned: {sorted(issued)}")
    print(f"  dense sequential-id violations (TPC-C 3.3.2.2-3): {len(sequential)}")
    print(f"  id collisions from naive per-side counters: {len(unique)} "
          f"(a HAT system avoids these by deriving ids from client id + "
          f"sequence number, at the cost of sequential ordering)")
    print("\nTPC-C through the simulated cluster (the tpcc-sim artifact)...")
    for protocol in ("read-committed", "lock-sr"):
        stats, audit = tpcc_through_the_cluster(protocol)
        print(f"  {protocol:<16} committed={stats.committed:<5} "
              f"orders={audit.orders_claimed:<4} "
              f"duplicate-ids={len(audit.duplicate_order_ids):<4} "
              f"gaps={len(audit.gapped_order_ids):<3} "
              f"double-deliveries={len(audit.double_deliveries)}")

    print("\nTakeaway: four of five TPC-C transactions run happily as HATs;")
    print("sequential district order ids are the part that fundamentally needs")
    print("unavailable coordination (or real-world compensation).")


if __name__ == "__main__":
    main()
