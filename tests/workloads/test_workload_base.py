"""Tests for the pluggable workload interface and the runner's use of it."""

import pytest

from repro.errors import WorkloadError
from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction
from repro.workloads.base import (
    Workload,
    WorkloadFactory,
    as_arrival_source,
    as_workload_factory,
    run_preload,
)
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload


class RecordingWorkload(Workload):
    """A minimal workload that remembers every observed result."""

    def __init__(self, session_id=None):
        self.session_id = session_id
        self.observed = []

    def next_transaction(self):
        return Transaction([Operation.write("k", "v")],
                           session_id=self.session_id)

    def observe(self, result):
        self.observed.append(result)


class RecordingFactory(WorkloadFactory):
    def __init__(self):
        self.built = []

    def build(self, seed, session_id):
        workload = RecordingWorkload(session_id=session_id)
        self.built.append(workload)
        return workload


class TestFactoryShape:
    def test_ycsb_config_is_a_factory(self):
        factory = as_workload_factory(YCSBConfig(key_count=10))
        workload = factory.build(seed=3, session_id=7)
        assert isinstance(workload, YCSBWorkload)
        assert workload.session_id == 7
        assert factory.initial_transactions() == []
        assert factory.settle_ms == 0.0

    def test_ycsb_build_matches_direct_construction(self):
        config = YCSBConfig(key_count=50)
        built = config.build(seed=9, session_id=1)
        direct = YCSBWorkload(config, seed=9, session_id=1)
        for _ in range(5):
            a, b = built.next_transaction(), direct.next_transaction()
            assert [op.key for op in a.operations] == [op.key for op in b.operations]

    def test_non_factory_rejected(self):
        with pytest.raises(WorkloadError, match="workload factory"):
            as_workload_factory(object())

    def test_a_factory_without_arrival_source_cannot_drive_the_open_loop(self):
        with pytest.raises(WorkloadError, match=r"arrival_source\(seed\)"):
            as_arrival_source(RecordingFactory(), seed=0)
        source = as_arrival_source(YCSBConfig(key_count=10), seed=0)
        assert source.transaction_for(3, 0).operations

    def test_abc_factory_defaults(self):
        factory = RecordingFactory()
        assert factory.initial_transactions() == []
        assert factory.settle_ms == 0.0

    def test_workload_observe_defaults_to_noop(self):
        class Minimal(Workload):
            def next_transaction(self):
                return Transaction([Operation.read("x")])

        assert Minimal().observe(object()) is None


class TestObserveFeedback:
    def test_runner_feeds_results_back(self):
        from repro.bench.runner import RunConfig, run_workload

        factory = RecordingFactory()
        scenario = Scenario(regions=["VA"], servers_per_cluster=2)
        config = RunConfig(protocol="eventual", scenario=scenario,
                           workload=factory, clients_per_cluster=2,
                           duration_ms=200.0, warmup_ms=0.0,
                           grace_period_ms=200.0)
        stats = run_workload(config)
        assert stats.committed > 0
        observed = sum(len(w.observed) for w in factory.built)
        assert observed == stats.committed + stats.aborted
        assert all(r.committed for w in factory.built for r in w.observed)


class TestRunPreload:
    def test_preload_writes_become_visible_everywhere(self):
        class Loaded(WorkloadFactory):
            settle_ms = 300.0

            def build(self, seed, session_id):
                raise AssertionError("not needed")

            def initial_transactions(self):
                return [Transaction([Operation.write("seeded", 41)])]

        testbed = build_testbed(Scenario(regions=["VA", "OR"],
                                         servers_per_cluster=2))
        count = run_preload(testbed, Loaded())
        assert count == 1
        # After the settle period every replica (via anti-entropy) has it.
        reader = testbed.make_client("eventual", home_cluster="cluster1-OR")
        result = testbed.env.run_until_complete(
            reader.execute(Transaction([Operation.read("seeded")])))
        assert result.value_read("seeded") == 41

    def test_empty_preload_is_free(self):
        testbed = build_testbed(Scenario(regions=["VA"], servers_per_cluster=1))
        assert run_preload(testbed, YCSBConfig()) == 0
        assert testbed.env.now == 0.0
