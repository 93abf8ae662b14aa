"""Unit tests for partition injection."""

import pytest

from repro.errors import NetworkError
from repro.net.partitions import PartitionManager


class TestPartitionManager:
    def test_fully_connected_by_default(self):
        manager = PartitionManager()
        assert manager.connected("a", "b")
        assert not manager.active

    def test_partition_splits_groups(self):
        manager = PartitionManager()
        manager.partition([["a", "b"], ["c"]])
        assert manager.connected("a", "b")
        assert not manager.connected("a", "c")
        assert not manager.connected("c", "b")
        assert manager.active

    def test_site_outside_all_groups_is_unreachable(self):
        manager = PartitionManager()
        manager.partition([["a", "b"]])
        assert not manager.connected("a", "z")
        assert not manager.connected("z", "a")

    def test_self_connectivity_always_holds(self):
        manager = PartitionManager()
        manager.partition([["a"], ["b"]])
        assert manager.connected("a", "a")
        manager.isolate("a")
        assert manager.connected("a", "a")

    def test_overlapping_groups_rejected(self):
        manager = PartitionManager()
        with pytest.raises(NetworkError):
            manager.partition([["a", "b"], ["b", "c"]])

    def test_isolate_and_rejoin(self):
        manager = PartitionManager()
        manager.isolate("a")
        assert not manager.connected("a", "b")
        manager.rejoin("a")
        assert manager.connected("a", "b")

    def test_heal_restores_connectivity(self):
        manager = PartitionManager()
        manager.partition([["a"], ["b"]])
        manager.isolate("c")
        manager.heal()
        assert manager.connected("a", "b")
        assert manager.connected("c", "a")
        assert not manager.active

    def test_reachable_from_filters(self):
        manager = PartitionManager()
        manager.partition([["a", "b"], ["c", "d"]])
        assert manager.reachable_from("a", ["b", "c", "d"]) == ["b"]

    def test_describe_snapshot(self):
        manager = PartitionManager()
        manager.partition([["b", "a"]])
        manager.isolate("z")
        snapshot = manager.describe()
        assert snapshot["groups"] == [["a", "b"]]
        assert snapshot["isolated"] == ["z"]
        assert snapshot["active"] is True


class TestPartitionStateTransitions:
    """partition() and partition_by() replace each other, never stack."""

    def test_partition_clears_stale_classifier(self):
        manager = PartitionManager()
        manager.partition_by(lambda site: None)  # everything unreachable
        manager.partition([["a", "b"], ["c"]])
        # The classifier would have vetoed a<->b; the static split must win.
        assert manager.connected("a", "b")
        assert not manager.connected("a", "c")

    def test_partition_by_clears_stale_groups(self):
        manager = PartitionManager()
        manager.partition([["a"], ["b"]])
        manager.partition_by(lambda site: "same")
        # The old groups would have vetoed a<->b; the classifier must win.
        assert manager.connected("a", "b")

    def test_clear_partition_keeps_isolations(self):
        manager = PartitionManager()
        manager.isolate("flappy")
        manager.partition([["a"], ["b"]])
        manager.clear_partition()
        assert manager.connected("a", "b")
        assert not manager.connected("flappy", "a")
        assert manager.active

    def test_clear_partition_removes_classifier_too(self):
        manager = PartitionManager()
        manager.partition_by(lambda site: None)
        manager.clear_partition()
        assert manager.connected("a", "b")
        assert not manager.active


class TestGeneration:
    """Routing may be memoised under ``generation``: every mutator bumps it,
    no query does."""

    MUTATORS = [
        lambda m: m.partition([["a"], ["b"]]),
        lambda m: m.partition_by(lambda site: site),
        lambda m: m.isolate("a"),
        lambda m: m.rejoin("a"),
        lambda m: m.clear_partition(),
        lambda m: m.heal(),
    ]

    @pytest.mark.parametrize("mutate", MUTATORS)
    def test_every_mutator_bumps_it(self, mutate):
        manager = PartitionManager()
        before = manager.generation
        mutate(manager)
        assert manager.generation > before

    def test_mutators_bump_it_while_a_fault_is_active_too(self):
        manager = PartitionManager()
        manager.isolate("z")
        for mutate in self.MUTATORS:
            before = manager.generation
            mutate(manager)
            assert manager.generation > before

    def test_queries_do_not_bump_it(self):
        manager = PartitionManager()
        manager.partition([["a", "b"], ["c"]])
        manager.isolate("z")
        before = manager.generation
        manager.connected("a", "c")
        manager.reachable_from("a", ["b", "c", "z"])
        manager.describe()
        assert manager.active
        assert manager.generation == before
