"""Replicas converge once a partition heals and the run drains.

A two-region YCSB run goes through the canonical partition (1 s baseline,
1 s split, 1 s recovery); then the clock runs until no event is left.  The
rule is hatbench's ``_replicas_converged`` over every key rather than a
sample: each of a key's replicas holds the same latest timestamp.

``eventual`` converges: anti-entropy parks what the split stranded and
pushes it after the heal.  ``master`` does not (ROADMAP item 28): a master
replicates each write with one ``repl.push`` sent once through
``Network.send``; a partition drops it and nothing sends it again.  On
this run 133 of 219 keys end with replicas that disagree.
"""

import pytest

from repro.bench.runner import RunConfig, run_workload
from repro.chaos.campaign import canonical_partition_campaign
from repro.chaos.nemesis import Nemesis
from repro.hat.testbed import Scenario, build_testbed
from repro.overload.retry import RetryPolicy
from repro.workloads.ycsb import YCSBConfig


def diverged_keys(testbed):
    """Keys whose replicas hold different latest timestamps."""
    keys = sorted({key for server in testbed.servers.values()
                   for key in server.store.data.keys()})
    assert keys
    return [key for key in keys
            if len({testbed.servers[replica].store.data.latest(key).timestamp
                    for replica in testbed.config.replicas_for(key)}) != 1]


@pytest.mark.parametrize("protocol", [
    "eventual",
    pytest.param("master", marks=pytest.mark.xfail(
        strict=True, reason="item 28: a repl.push a partition drops is never "
                            "resent, so the master's replicas stay apart")),
])
def test_replicas_converge_after_a_partition_heals(protocol):
    scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2, seed=1)
    testbed = build_testbed(scenario)
    campaign = canonical_partition_campaign(scenario.regions, 1_000.0,
                                            1_000.0, 1_000.0)
    Nemesis(testbed, campaign).install()
    run_workload(RunConfig(protocol=protocol, scenario=scenario,
                           workload=YCSBConfig(key_count=1_000),
                           clients_per_cluster=2,
                           duration_ms=campaign.duration_ms, warmup_ms=0.0,
                           seed=1, retry=RetryPolicy(rpc_timeout_ms=500.0)),
                 testbed=testbed)
    testbed.env.run()
    assert testbed.env.pending_events == 0
    assert diverged_keys(testbed) == []
