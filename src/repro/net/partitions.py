"""Network partition injection.

Section 2.1 of the paper documents that partitions are frequent in practice;
Sections 4-5 reason about behaviour under *arbitrary, indefinitely long*
partitions.  The :class:`PartitionManager` cuts the simulated network into
groups of sites: messages between sites in different groups are dropped (the
sender observes a timeout), and messages within a group flow normally.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set


class PartitionManager:
    """Tracks which sites can currently communicate.  :meth:`connected` keeps
    each pair's verdict until the next mutator (so a classifier must be pure)
    unless a ``None`` label decided it: a site the classifier may learn later."""

    def __init__(self):
        self._isolated: Set[str] = set()
        self._classifier: Optional[Callable[[str], Optional[str]]] = None
        #: ``True`` while no partition, classifier, or isolation is in force:
        #: the network's per-message check is then one attribute read.
        self.idle: bool = True
        #: Bumped by every mutator, never by a query: reachability is a pure
        #: function of the state since the last bump, so callers may memoise under it.
        self.generation: int = 0
        #: ``(a, b)`` -> :meth:`connected`'s verdict (``Network.send`` reads it).
        self.verdicts: Dict[tuple, bool] = {}

    def _changed(self) -> None:
        """Every mutator ends here: recompute ``idle``, bump ``generation``, forget verdicts."""
        self.idle = self._classifier is None and not self._isolated
        self.generation += 1
        self.verdicts.clear()

    # -- configuration -------------------------------------------------------
    def partition_by(self, classifier: Callable[[str], Optional[str]]) -> None:
        """Partition by a classifier: sites communicate iff same group label.

        The classifier is evaluated at message time, so sites registered
        *after* the partition started (e.g. new clients) are still assigned
        to the right side of the split.  A classifier returning ``None``
        marks a site as unreachable from everywhere.  Replaces any split set
        before.

        The classifier must be a pure function of the site name: verdicts
        (and routing memoised under :attr:`generation`) are kept until a
        mutator runs; only a ``None`` label is asked again.
        """
        self._classifier = classifier
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
        """Remove the classifier split but keep per-site isolations.

        Chaos campaigns overlay independent fault elements — a region
        partition may heal while a flapping link is still mid-epoch — so
        ending the partition must not also rejoin isolated sites.
        """
        self._classifier = None
        self._changed()

    # -- queries ---------------------------------------------------------------
    def connected(self, a: str, b: str) -> bool:
        """Can a message currently travel from ``a`` to ``b``?"""
        if self.idle or a == b:
            return True
        verdict = self.verdicts.get((a, b))
        if verdict is None:
            verdict = not (a in self._isolated or b in self._isolated)
            if verdict and self._classifier is not None:
                group_a, group_b = self._classifier(a), self._classifier(b)
                if group_a is None or group_b is None:
                    return False  # not memoised: the site may be learned later
                verdict = group_a == group_b
            self.verdicts[a, b] = verdict
        return verdict

    def reachable_from(self, site: str, candidates: Iterable[str]) -> List[str]:
        """Filter ``candidates`` down to those reachable from ``site``."""
        return [c for c in candidates if self.connected(site, c)]
