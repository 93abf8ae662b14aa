"""Versioned records and transaction timestamps.

Section 5.1.1 of the paper builds Read Uncommitted from a total order on
writes per item, implemented by tagging every write in a transaction with a
single unique timestamp ("combining a client's ID with a sequence number")
and resolving concurrent writes with last-writer-wins.  The MAV algorithm
(Appendix B) additionally attaches the set of sibling keys written by the
same transaction.
"""

from __future__ import annotations

from typing import Any, FrozenSet, NamedTuple, Optional


class Timestamp(NamedTuple):
    """A globally unique transaction timestamp.

    Ordered first by the logical sequence number, then by client id to break
    ties — tuple order, compared natively on every version install and read
    floor; this yields the total order per item required by Read Uncommitted
    and a deterministic last-writer-wins winner.
    """

    sequence: int
    client_id: int

    def __str__(self) -> str:
        return f"{self.sequence}.{self.client_id}"


#: The "null" timestamp: smaller than every real timestamp, used for the
#: initial (bottom) version of every item.
NULL_TIMESTAMP = Timestamp(sequence=-1, client_id=-1)
#: :attr:`Version.metadata_bytes` is ``METADATA_BYTES`` plus ``SIBLING_BYTES``
#: per sibling beyond the first; per-install readers inline it from these.
METADATA_BYTES, SIBLING_BYTES = 34, 15


class Version(NamedTuple):
    """One immutable version of a data item (a tuple: cheap to build)."""

    key: str
    value: Any
    timestamp: Timestamp
    #: Transaction id of the writer (used when reconstructing Adya histories).
    txn_id: Optional[int] = None
    #: Keys written by the same transaction (MAV metadata, Appendix B).  One
    #: shared empty set: a factory would allocate 216 bytes per version.
    siblings: FrozenSet[str] = frozenset()
    #: ``True`` when this version is a delete marker.
    tombstone: bool = False

    @property
    def metadata_bytes(self) -> int:
        """Approximate metadata size, used by the bench cost model.

        The paper reports 34 bytes of MAV overhead for one-operation
        transactions and ~1.9 KB for 128-operation transactions, i.e. roughly
        a constant plus ~15 bytes per sibling key.
        """
        return METADATA_BYTES + SIBLING_BYTES * max(len(self.siblings) - 1, 0)


def initial_version(key: str) -> Version:
    """The bottom version (value ``None``) present before any write, built
    per read: a memo would keep one per distinct key for the process's life."""
    return Version(key, None, NULL_TIMESTAMP)
