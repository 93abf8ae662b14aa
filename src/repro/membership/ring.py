"""A consistent-hash ring with virtual nodes.

The paper's prototype is "hash-based partitioned" over a *fixed* server
list, which is what :class:`~repro.cluster.partitioner.HashPartitioner`
reproduces: placement is ``hash(key) % n``, so adding one server to a
cluster of ``n`` remaps ``(n-1)/n`` of the key space.  Elastic membership
needs the opposite property — Karger-style consistent hashing moves only
``~1/(n+1)`` of the keys when a node joins, the *minimal disruption* the
Dynamo lineage of AP stores (which HATs generalize) is built on.

Each owner projects ``virtual_nodes`` tokens onto a 64-bit ring using the
same stable SHA-1 key hash the modulo partitioner uses, so placement is
deterministic across runs, processes, and ``PYTHONHASHSEED`` values.  A
key belongs to the owner of the first token clockwise from the key's
hash.  The ring is immutable; membership changes build a new ring via
:meth:`with_owner` / :meth:`without_owner`, which is what lets the
membership coordinator compute a *pending* placement (who will own what
after a join completes) before flipping the cluster's epoch.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence, Tuple

from repro.cluster.partitioner import Partitioner, _stable_key_hash
from repro.errors import ReproError

#: Default tokens per owner.  128 keeps per-owner load within ~±10% of the
#: 1/n ideal (relative spread ~ 1/sqrt(virtual_nodes)), tight enough that
#: the minimal-disruption property tests hold with comfortable tolerance.
DEFAULT_VIRTUAL_NODES = 128


class ConsistentHashRing(Partitioner):
    """Deterministically maps keys onto owners via a token ring.

    Shares its query surface with
    :class:`~repro.cluster.partitioner.HashPartitioner` (both are a
    :class:`~repro.cluster.partitioner.Partitioner`), so a
    :class:`~repro.cluster.config.Cluster` can route through either without
    its callers noticing.
    """

    def __init__(self, owners: Sequence[str],
                 virtual_nodes: int = DEFAULT_VIRTUAL_NODES):
        super().__init__(owners)
        if len(set(owners)) != len(owners):
            raise ReproError(f"duplicate ring owners: {list(owners)}")
        if virtual_nodes < 1:
            raise ReproError("virtual_nodes must be at least 1")
        self.virtual_nodes = virtual_nodes
        # Token table sorted by token; ties (SHA-1 collisions across names)
        # are broken by owner name so insertion order never matters.
        entries: List[Tuple[int, str]] = []
        for owner in owners:
            for index in range(virtual_nodes):
                entries.append((_stable_key_hash(f"{owner}#vn{index}"), owner))
        entries.sort()
        self._tokens: List[int] = [token for token, _owner in entries]
        self._token_owners: List[str] = [owner for _token, owner in entries]

    def owner_of_hash(self, key_hash: int) -> str:
        """The owner of the first token clockwise from ``key_hash``."""
        index = bisect_right(self._tokens, key_hash)
        if index == len(self._tokens):
            index = 0
        return self._token_owners[index]

    # -- membership -------------------------------------------------------------
    def with_owner(self, owner: str) -> "ConsistentHashRing":
        """A new ring with ``owner`` added (the pending post-join placement)."""
        if owner in self._owners:
            raise ReproError(f"owner {owner!r} is already on the ring")
        return ConsistentHashRing(self._owners + [owner], self.virtual_nodes)

    def without_owner(self, owner: str) -> "ConsistentHashRing":
        """A new ring with ``owner`` removed (the pending post-leave placement)."""
        if owner not in self._owners:
            raise ReproError(f"owner {owner!r} is not on the ring")
        remaining = [o for o in self._owners if o != owner]
        if not remaining:
            raise ReproError("cannot remove the last owner from the ring")
        return ConsistentHashRing(remaining, self.virtual_nodes)

    def moved_fraction(self, other: "ConsistentHashRing",
                       keys: Sequence[str]) -> float:
        """Fraction of ``keys`` whose owner differs between the two rings."""
        if not keys:
            return 0.0
        moved = sum(1 for key in keys if self.owner_for(key) != other.owner_for(key))
        return moved / len(keys)

    def __len__(self) -> int:
        return len(self._owners)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ConsistentHashRing owners={len(self._owners)} "
                f"virtual_nodes={self.virtual_nodes}>")
