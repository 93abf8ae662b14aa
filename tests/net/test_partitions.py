"""Unit tests for partition injection."""

import pytest

from repro.net.partitions import PartitionManager


class TestPartitionManager:
    def test_fully_connected_by_default(self):
        manager = PartitionManager()
        assert manager.connected("a", "b")
        assert manager.idle

    def test_partition_splits_groups(self):
        manager = PartitionManager()
        manager.partition_by({"a": 0, "b": 0, "c": 1}.get)
        assert manager.connected("a", "b")
        assert not manager.connected("a", "c")
        assert not manager.connected("c", "b")
        assert not manager.idle

    def test_site_outside_all_groups_is_unreachable(self):
        manager = PartitionManager()
        manager.partition_by({"a": 0, "b": 0}.get)
        assert not manager.connected("a", "z")
        assert not manager.connected("z", "a")

    def test_self_connectivity_always_holds(self):
        manager = PartitionManager()
        manager.partition_by({"a": 0, "b": 1}.get)
        assert manager.connected("a", "a")
        manager.isolate("a")
        assert manager.connected("a", "a")

    def test_isolate_and_rejoin(self):
        manager = PartitionManager()
        manager.isolate("a")
        assert not manager.connected("a", "b")
        manager.rejoin("a")
        assert manager.connected("a", "b")

    def test_heal_restores_connectivity(self):
        manager = PartitionManager()
        manager.partition_by({"a": 0, "b": 1}.get)
        manager.isolate("c")
        manager.clear_partition()
        manager.rejoin("c")
        assert manager.connected("a", "b")
        assert manager.connected("c", "a")
        assert manager.idle

    def test_reachable_from_filters(self):
        manager = PartitionManager()
        manager.partition_by({"a": 0, "b": 0, "c": 1, "d": 1}.get)
        assert manager.reachable_from("a", ["b", "c", "d"]) == ["b"]



class TestPartitionStateTransitions:
    """A split replaces the split before it, never stacks on it."""

    def test_partition_clears_stale_classifier(self):
        manager = PartitionManager()
        manager.partition_by(lambda site: None)  # everything unreachable
        manager.partition_by({"a": 0, "b": 0, "c": 1}.get)
        # The first classifier would have vetoed a<->b; the second must win.
        assert manager.connected("a", "b")
        assert not manager.connected("a", "c")

    def test_partition_by_clears_stale_groups(self):
        manager = PartitionManager()
        manager.partition_by({"a": 0, "b": 1}.get)
        manager.partition_by(lambda site: "same")
        # The old groups would have vetoed a<->b; the new split must win.
        assert manager.connected("a", "b")

    def test_clear_partition_keeps_isolations(self):
        manager = PartitionManager()
        manager.isolate("flappy")
        manager.partition_by({"a": 0, "b": 1}.get)
        manager.clear_partition()
        assert manager.connected("a", "b")
        assert not manager.connected("flappy", "a")
        assert not manager.idle

    def test_clear_partition_removes_classifier_too(self):
        manager = PartitionManager()
        manager.partition_by(lambda site: None)
        manager.clear_partition()
        assert manager.connected("a", "b")
        assert manager.idle


class TestGeneration:
    """Routing may be memoised under ``generation``: every mutator bumps it,
    no query does."""

    MUTATORS = [
        lambda m: m.partition_by(lambda site: site),
        lambda m: m.isolate("a"),
        lambda m: m.rejoin("a"),
        lambda m: m.clear_partition(),
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
        manager.partition_by({"a": 0, "b": 0, "c": 1}.get)
        manager.isolate("z")
        before = manager.generation
        manager.connected("a", "c")
        manager.reachable_from("a", ["b", "c", "z"])
        assert not manager.idle
        assert manager.generation == before
