"""Network partition injection.

Section 2.1 of the paper documents that partitions are frequent in practice;
Sections 4-5 reason about behaviour under *arbitrary, indefinitely long*
partitions.  The :class:`PartitionManager` cuts the simulated network into
groups of sites: messages between sites in different groups are dropped (the
sender observes a timeout), and messages within a group flow normally.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.errors import NetworkError


class PartitionManager:
    """Tracks which sites can currently communicate."""

    def __init__(self):
        self._groups: Optional[List[Set[str]]] = None  # for describe() only
        self._isolated: Set[str] = set()
        self._classifier: Optional[Callable[[str], Optional[str]]] = None
        #: ``True`` while no partition, classifier, or isolation is in force.
        #: Maintained eagerly so the network's per-message reachability check
        #: is one attribute read in the (overwhelmingly common) healthy case.
        self.idle: bool = True
        #: Bumped by every mutator (never by a query).  Reachability is a
        #: pure function of the state set since the last bump, so callers
        #: may memoise routing decisions under a generation.
        self.generation: int = 0

    def _changed(self) -> None:
        """Every mutator ends here: recompute ``idle``, bump ``generation``."""
        self.idle = self._classifier is None and not self._isolated
        self.generation += 1

    # -- configuration -------------------------------------------------------
    def partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Split the network into ``groups`` of site names: the classifier
        of each site's group index, replacing any previous split.

        A site that appears in no group is unreachable from everywhere.
        Groups must be disjoint.
        """
        normalized = [set(group) for group in groups]
        index: Dict[str, int] = {}
        for number, group in enumerate(normalized):
            if group & index.keys():
                raise NetworkError(
                    f"partition groups overlap: {sorted(group & index.keys())}")
            index.update(dict.fromkeys(group, number))
        self.partition_by(index.get)
        self._groups = normalized

    def partition_by(self, classifier: Callable[[str], Optional[str]]) -> None:
        """Partition by a classifier: sites communicate iff same group label.

        Unlike :meth:`partition`, the classifier is evaluated at message time,
        so sites registered *after* the partition started (e.g. new clients)
        are still assigned to the right side of the split.  A classifier
        returning ``None`` marks a site as unreachable from everywhere.
        Replaces any static partition previously set with :meth:`partition`.

        The classifier must be a pure function of the site name: routing
        memoised under :attr:`generation` assumes the split only changes
        through this manager's mutators.
        """
        self._classifier = classifier
        self._groups = None
        self._changed()

    def isolate(self, site: str) -> None:
        """Cut one site off from every other site."""
        self._isolated.add(site)
        self._changed()

    def rejoin(self, site: str) -> None:
        """Undo :meth:`isolate` for one site."""
        self._isolated.discard(site)
        self._changed()

    def clear_partition(self) -> None:
        """Remove the group/classifier split but keep per-site isolations.

        Chaos campaigns overlay independent fault elements — a region
        partition may heal while a flapping link is still mid-epoch — so
        ending the partition must not also rejoin isolated sites the way
        :meth:`heal` does.
        """
        self._groups = None
        self._classifier = None
        self._changed()

    def heal(self) -> None:
        """Remove every partition and isolation."""
        self._groups = None
        self._isolated.clear()
        self._classifier = None
        self._changed()

    # -- queries ---------------------------------------------------------------
    @property
    def active(self) -> bool:
        """``True`` when any partition or isolation is in force."""
        return not self.idle

    def connected(self, a: str, b: str) -> bool:
        """Can a message currently travel from ``a`` to ``b``?"""
        if self.idle or a == b:
            return True
        if a in self._isolated or b in self._isolated:
            return False
        if self._classifier is not None:
            group_a = self._classifier(a)
            group_b = self._classifier(b)
            if group_a is None or group_b is None or group_a != group_b:
                return False
        return True

    def reachable_from(self, site: str, candidates: Iterable[str]) -> List[str]:
        """Filter ``candidates`` down to those reachable from ``site``."""
        return [c for c in candidates if self.connected(site, c)]

    def describe(self) -> Dict[str, object]:
        """A plain-dict snapshot, convenient for logging and tests."""
        return {
            "groups": [sorted(g) for g in (self._groups or [])],
            "isolated": sorted(self._isolated),
            "active": self.active,
        }
