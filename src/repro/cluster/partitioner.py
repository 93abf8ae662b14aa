"""Hash partitioning of the key space across the servers of a cluster."""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence

from repro.errors import ReproError


def _stable_key_hash(key: str) -> int:
    """SHA-1-derived 64-bit hash (not memoized: ``ClusterConfig`` places a
    key once, computing this same hash inline)."""
    digest = hashlib.sha1(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Partitioner:
    """Maps keys onto owners through a stable hash (SHA-1 of the key), so
    placement does not depend on Python's randomized ``hash()``.  A subclass
    says which owner a hash lands on (:meth:`owner_of_hash`)."""

    def __init__(self, owners: Sequence[str]):
        if not owners:
            raise ReproError(f"{type(self).__name__} requires at least one owner")
        self._owners: List[str] = list(owners)

    @property
    def owners(self) -> List[str]:
        """The owners in their registration order."""
        return list(self._owners)

    @staticmethod
    def key_hash(key: str) -> int:
        """A stable 64-bit hash of ``key``."""
        return _stable_key_hash(key)

    def owner_of_hash(self, key_hash: int) -> str:
        """The owner of the key whose :meth:`key_hash` is ``key_hash``."""
        raise NotImplementedError

    def owner_for(self, key: str) -> str:
        """The owner responsible for ``key``."""
        return self.owner_of_hash(_stable_key_hash(key))

    def keys_per_owner(self, keys: Sequence[str]) -> Dict[str, int]:
        """Histogram of how many of ``keys`` land on each owner."""
        counts = {owner: 0 for owner in self._owners}
        for key in keys:
            counts[self.owner_for(key)] += 1
        return counts


class HashPartitioner(Partitioner):
    """The paper's "hash-based partitioned" prototype: ``hash % n`` over a
    fixed list of owners, one per partition slot."""

    def partition_index(self, key: str) -> int:
        """The partition slot that owns ``key``."""
        return _stable_key_hash(key) % len(self._owners)

    def owner_of_hash(self, key_hash: int) -> str:
        return self._owners[key_hash % len(self._owners)]
