"""Section 6.2: TPC-C requirements analysis, executed on the simulated HATs.

The paper's claims, reproduced here as measurements:

* four of the five TPC-C transaction types are HAT-executable,
* Payment's integrity constraint (warehouse YTD = sum of district YTDs,
  TPC-C Consistency Condition 1) survives HAT execution because the rows are
  updated atomically (MAV),
* New-Order under HATs keeps order ids *unique* but cannot keep them densely
  *sequential* when clients on both sides of a partition assign ids
  concurrently — the condition that requires unavailable coordination.
"""

from repro.hat.testbed import Scenario, build_testbed
from repro.workloads.tpcc import (
    TPCCConfig,
    TPCCWorkload,
    district_next_oid_key,
    initial_load_transactions,
)
from repro.workloads.tpcc_analysis import (
    check_sequential_order_ids,
    check_state,
    hat_compliance_table,
    hat_executable_count,
)


def run_tpcc_on_hat(protocol="mav", transactions=60):
    """Drive the TPC-C mix through one HAT client and validate the state."""
    testbed = build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))
    workload = TPCCWorkload(TPCCConfig(warehouses=2, districts_per_warehouse=2,
                                       customers_per_district=10, items=50), seed=1)
    client = testbed.make_client(protocol)
    env = testbed.env
    for txn in initial_load_transactions(workload.config):
        env.run_until_complete(client.execute(txn))
    committed = 0
    for _ in range(transactions):
        result = env.run_until_complete(client.execute(workload.next_transaction()))
        committed += int(result.committed)
    return testbed, workload, committed


def concurrent_new_orders_during_partition(count_per_side=10):
    """Two clients on opposite sides of a partition both run New-Orders for
    the same district, each assigning ids from its own (stale) counter."""
    testbed = build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))
    testbed.partition_regions([["VA"], ["OR"]])
    env = testbed.env
    issued = []
    for cluster in testbed.config.cluster_names:
        client = testbed.make_client("read-committed", home_cluster=cluster)
        # Each side has its own driver state mirroring only what it can see.
        side = TPCCWorkload(TPCCConfig(warehouses=1, districts_per_warehouse=1,
                                       customers_per_district=10, items=50), seed=7)
        for _ in range(count_per_side):
            txn = side.new_order(warehouse=1, district=1)
            result = env.run_until_complete(client.execute(txn))
            assert result.committed  # HATs stay available during the partition
        issued.extend(side.state.issued_order_ids[(1, 1)])
    return issued


def test_tpcc_hat_analysis(bench_print):
    testbed, workload, committed = run_tpcc_on_hat()

    report = check_state(workload.state)
    executable, total = hat_executable_count()

    lines = [
        hat_compliance_table(),
        "",
        f"HAT-executable transaction types: {executable} of {total}",
        f"transactions committed on the MAV testbed: {committed}",
        f"Consistency Condition 1 violations (W_YTD = sum D_YTD): "
        f"{len(report['condition_1'])}",
        f"duplicate order ids: {len(report['unique_ids'])}",
        f"negative stock levels: {len(report['non_negative_stock'])}",
    ]

    # Concurrent New-Orders across a partition: availability is preserved but
    # the sequential-id condition is not.
    partition_ids = concurrent_new_orders_during_partition()
    sequential_violations = check_sequential_order_ids({(1, 1): partition_ids})
    lines.append(
        f"order ids issued concurrently across a partition: {sorted(partition_ids)[:12]}..."
    )
    lines.append(
        f"TPC-C 3.3.2.2-3 (sequential ids) violations under partition: "
        f"{len(sequential_violations)}"
    )
    bench_print("Section 6.2: TPC-C on HATs", "\n".join(lines))

    assert (executable, total) == (4, 5)
    assert committed > 0
    assert report["condition_1"] == []
    assert report["unique_ids"] == []
    assert report["non_negative_stock"] == []
    # The unavailable requirement: dense sequential ids fail under partition.
    assert sequential_violations
