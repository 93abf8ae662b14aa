"""Hash partitioning of the key space across the servers of a cluster."""

from __future__ import annotations

import hashlib
from typing import List, Sequence

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

    def owner_of_hash(self, key_hash: int) -> str:
        """The owner of the key whose stable hash is ``key_hash``."""
        raise NotImplementedError

    def owner_for(self, key: str) -> str:
        """The owner responsible for ``key``."""
        return self.owner_of_hash(_stable_key_hash(key))


class HashPartitioner(Partitioner):
    """The paper's "hash-based partitioned" prototype: ``hash % n`` over a
    fixed list of owners, one per partition slot."""

    def owner_of_hash(self, key_hash: int) -> str:
        return self._owners[key_hash % len(self._owners)]
