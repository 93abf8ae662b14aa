#!/usr/bin/env python3
"""TPC-C on Highly Available Transactions (the paper's Section 6.2).

Four parts:

1. The static requirements analysis: which of the five TPC-C transactions can
   execute as HATs, and what each one needs.
2. A live run of the TPC-C mix through the MAV configuration, with the
   recorded history audited for the order-id and delivery anomalies.
3. The failure case: concurrent New-Order transactions on opposite sides of a
   network partition keep committing (availability!) but claim duplicate
   order ids, breaking the *sequential* order-id requirement — exactly the
   coordination HATs cannot provide.
4. The comparison: the same closed-loop run under a weak HAT stack and under
   serializable locking (the ``tpcc-sim`` bench artifact, in miniature).

Run with::

    python examples/tpcc_on_hats.py
"""

from repro.adya.history import HistoryRecorder
from repro.bench.runner import RunConfig, run_workload
from repro.hat import Scenario, build_testbed
from repro.workloads.base import run_preload
from repro.workloads.tpcc_analysis import hat_compliance_table
from repro.workloads.tpcc_audit import audit_tpcc_history
from repro.workloads.tpcc_driver import TPCCDriverFactory


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


def partitioned_new_orders(per_side=15):
    """Each side of a region partition runs New-Orders on one district."""
    testbed = build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))
    factory = TPCCDriverFactory()
    run_preload(testbed, factory)
    testbed.partition_regions([["VA"], ["OR"]])
    recorder = HistoryRecorder()
    for index, cluster in enumerate(testbed.config.cluster_names):
        client = testbed.make_client("read-committed", home_cluster=cluster,
                                     recorder=recorder)
        driver = factory.build(seed=index, session_id=index)
        for _ in range(per_side):
            result = testbed.env.run_until_complete(
                client.execute(driver.new_order(warehouse=1, district=1)))
            assert result.committed, "HATs must stay available under the partition"
            driver.observe(result)
    return audit_tpcc_history(recorder.build())


def summary(protocol, stats, audit):
    return (f"  {protocol:<16} committed={stats.committed:<5} "
            f"orders={audit.orders_claimed:<4} "
            f"duplicate-ids={len(audit.duplicate_order_ids):<4} "
            f"gaps={len(audit.gapped_order_ids):<3} "
            f"double-deliveries={len(audit.double_deliveries)}")


def main():
    print("Section 6.2 — TPC-C requirements analysis")
    print("=" * 64)
    print(hat_compliance_table())

    print("\nRunning the TPC-C mix through the MAV configuration...")
    print(summary("mav", *tpcc_through_the_cluster("mav")))

    print("\nConcurrent New-Orders across a network partition...")
    audit = partitioned_new_orders()
    print(f"  orders committed during the partition:     {audit.orders_claimed}")
    print(f"  ids claimed: {sorted(audit.claims[(1, 1)])}")
    print(f"  duplicate order ids (TPC-C 3.3.2.2-3 needs none): "
          f"{len(audit.duplicate_order_ids)}")

    print("\nTPC-C through the simulated cluster (the tpcc-sim artifact)...")
    for protocol in ("read-committed", "lock-sr"):
        print(summary(protocol, *tpcc_through_the_cluster(protocol)))

    print("\nTakeaway: four of five TPC-C transactions run happily as HATs;")
    print("sequential district order ids are the part that fundamentally needs")
    print("unavailable coordination (or real-world compensation).")


if __name__ == "__main__":
    main()
