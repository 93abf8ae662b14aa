"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.hat.testbed import Scenario, Testbed, build_testbed
from repro.sim import Environment


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def small_testbed() -> Testbed:
    """Two clusters (VA + OR), two servers each — the default integration rig."""
    return build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))


@pytest.fixture
def local_testbed() -> Testbed:
    """A single-region, fixed-latency deployment for deterministic tests."""
    return build_testbed(Scenario(regions=["VA"], servers_per_cluster=2,
                                  fixed_latency_ms=1.0))


def run_txn(testbed: Testbed, client, transaction):
    """Run one transaction to completion and return its result."""
    return testbed.env.run_until_complete(client.execute(transaction))


@pytest.fixture
def execute():
    """Callable fixture: ``execute(testbed, client, transaction)``."""
    return run_txn


def _artifact_sweeps():
    from repro.bench import experiments as ex

    return {
        "tpcc_sim_healthy": (ex.tpcc_sim_experiment, dict(
            protocols=("read-committed", "lock-sr"), duration_ms=500.0,
            seed=2)),
        "tpcc_sim_partitioned": (ex.tpcc_sim_experiment, dict(
            protocols=("eventual",), partition=True, baseline_ms=400.0,
            partition_ms=800.0, recovery_ms=400.0, window_ms=200.0, seed=2)),
        "saturation": (ex.saturation_experiment, dict(
            protocols=("eventual", "lock-sr"), users=5_000,
            sessions_per_cluster=2, ramp_start_rate_s=10.0,
            ramp_peak_rate_s=120.0, ramp_ms=1_200.0, heal_rate_s=4.0,
            baseline_ms=400.0, partition_ms=800.0, recovery_ms=1_600.0,
            window_ms=200.0, key_count=500)),
        "metastability": (ex.metastability_experiment, dict(
            protocols=("eventual",))),
        "trace": (ex.trace_experiment, dict(
            protocols=("eventual", "causal"), duration_ms=600.0,
            baseline_ms=400.0, partition_ms=800.0, recovery_ms=400.0,
            key_count=500, seed=0)),
        "staleness": (ex.staleness_experiment, dict(
            protocols=("eventual", "master"), healthy_ms=600.0,
            partition_ms=1_000.0, rebalance_ms=800.0, window_ms=200.0)),
        "elasticity": (ex.elasticity_experiment, dict(
            protocols=("eventual", "causal", "master"), baseline_ms=1_000.0,
            scale_out_ms=1_250.0, partition_ms=2_000.0, scale_in_ms=1_250.0,
            recovery_ms=750.0, window_ms=250.0)),
        "figure4": (ex.figure4_transaction_length, dict(
            lengths=(1, 4), protocols=("eventual",), clients_per_cluster=1,
            duration_ms=200.0)),
        "figure5": (ex.figure5_write_proportion, dict(
            write_proportions=(0.0, 1.0), protocols=("eventual",),
            clients_per_cluster=1, duration_ms=200.0)),
    }


@pytest.fixture(scope="session")
def artifact_sweep():
    """``artifact_sweep(name)``: a small named artifact sweep, run once.

    The artifact suites and the golden pins
    (``tests/bench/test_golden_artifacts.py``) inspect the same results,
    so each sweep is simulated once per session whichever test asks first.
    Extra keywords (``jobs=2``) run it afresh with those added.
    """
    sweeps = _artifact_sweeps()
    cache = {}

    def run(name, **extra):
        function, kwargs = sweeps[name]
        if extra:
            return function(**kwargs, **extra)
        if name not in cache:
            cache[name] = function(**kwargs)
        return cache[name]

    return run
