"""A multi-versioned in-memory key-value store.

Each replica keeps two maps: key -> its newest version, and key -> its older
retained versions, oldest first, for a key that has any (most keys hold one
version).  The HAT algorithms of Section 5.1 rely on multi-versioning
("algorithms that rely on multi-versioning and limited client-side caching"),
so the store exposes both "latest visible version" and "latest version not
exceeding a timestamp" reads.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import StorageError
from repro.storage.records import Timestamp, Version, initial_version

#: The bisect key: a key's older versions are ordered by timestamp.
_timestamp = attrgetter("timestamp")


class VersionedStore:
    """Multi-version map: each key's newest version, and its history."""

    def __init__(self, keep_versions: Optional[int] = None):
        """``keep_versions`` bounds versions retained per key (None = all)."""
        if keep_versions is not None and keep_versions < 1:
            raise StorageError("keep_versions must be at least 1")
        self._keep = keep_versions
        self._latest: Dict[str, Version] = {}
        self._older: Dict[str, List[Version]] = {}

    # -- writes --------------------------------------------------------------
    def install(self, version: Version) -> bool:
        """Install ``version``; returns ``False`` if that timestamp exists."""
        key, timestamp = version.key, version.timestamp
        latest = self._latest.get(key)
        if latest is None:
            self._latest[key] = version
            return True
        last = latest.timestamp
        if timestamp > last:
            # Common case: writes arrive in timestamp order — the newest
            # version steps into the history, an O(1) append.
            self._latest[key] = version
            version = latest
        elif timestamp == last:
            return False
        older = self._older.get(key)
        if older is None:
            if self._keep != 1:
                self._older[key] = [version]
            return True
        if version is latest:
            older.append(version)
        else:
            index = bisect_right(older, timestamp, key=_timestamp)
            if index > 0 and older[index - 1].timestamp == timestamp:
                return False
            older.insert(index, version)
        if self._keep is not None and len(older) >= self._keep:
            del older[:len(older) - self._keep + 1]
        return True

    # -- reads --------------------------------------------------------------
    def latest(self, key: str) -> Version:
        """Latest installed version, or the initial bottom version."""
        return self._latest.get(key) or initial_version(key)

    def latest_at_or_before(self, key: str, timestamp: Timestamp) -> Optional[Version]:
        """Latest version with timestamp <= ``timestamp`` (None if absent)."""
        latest = self._latest.get(key)
        if latest is None or latest.timestamp <= timestamp:
            return latest
        older = self._older.get(key)
        index = bisect_right(older, timestamp, key=_timestamp) if older else 0
        return older[index - 1] if index else None

    def exact(self, key: str, timestamp: Timestamp) -> Optional[Version]:
        """The version with exactly ``timestamp``, if installed."""
        version = self.latest_at_or_before(key, timestamp)
        return version if version is not None and version.timestamp == timestamp else None

    def versions(self, key: str) -> List[Version]:
        """All retained versions of ``key``, oldest first."""
        latest = self._latest.get(key)
        return [] if latest is None else self._older.get(key, []) + [latest]

    def keys(self) -> Iterator[str]:
        """All keys that have at least one installed version."""
        return iter(self._latest.keys())

    def scan(self, predicate: Callable[[str, Version], bool]) -> List[Version]:
        """Latest version of every key whose latest version matches.

        This is the primitive behind predicate reads (``SELECT WHERE``) used
        by Predicate Cut Isolation.
        """
        return [version for key, version in self._latest.items()
                if not version.tombstone and predicate(key, version)]
