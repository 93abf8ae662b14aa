"""The replica store as it stood before it kept each key's latest version
apart from its history.

``repro.storage.kvstore.VersionedStore`` keeps two maps: key -> newest
version, and key -> older retained versions for a key that has any.  This is
the class it replaced, verbatim: one list of versions per key, the newest
last.  ``test_property_kvstore.py`` holds the rewrite to it, return value
for return value.
"""

from bisect import bisect_right
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import StorageError
from repro.storage.records import Timestamp, Version, initial_version

#: The bisect key: a key's one version list is ordered by timestamp.
_timestamp = attrgetter("timestamp")


class VersionedStore:
    """Multi-version map from key to timestamp-ordered versions."""

    def __init__(self, keep_versions: Optional[int] = None):
        """``keep_versions`` bounds versions retained per key (None = all)."""
        if keep_versions is not None and keep_versions < 1:
            raise StorageError("keep_versions must be at least 1")
        self._keep = keep_versions
        self._versions: Dict[str, List[Version]] = {}

    # -- writes --------------------------------------------------------------
    def install(self, version: Version) -> bool:
        """Install ``version``; returns ``False`` if that timestamp exists."""
        key = version.key
        timestamp = version.timestamp
        versions = self._versions.get(key)
        if versions is None:
            self._versions[key] = [version]
            return True
        last = versions[-1].timestamp
        if timestamp > last:
            # Common case: writes arrive in timestamp order — O(1) append
            # instead of bisect + insert.
            versions.append(version)
        elif timestamp == last:
            return False
        else:
            index = bisect_right(versions, timestamp, key=_timestamp)
            if index > 0 and versions[index - 1].timestamp == timestamp:
                return False
            versions.insert(index, version)
        if self._keep is not None and len(versions) > self._keep:
            del versions[:len(versions) - self._keep]
        return True

    # -- reads --------------------------------------------------------------
    def latest(self, key: str) -> Version:
        """Latest installed version, or the initial bottom version."""
        versions = self._versions.get(key)
        if not versions:
            return initial_version(key)
        return versions[-1]

    def latest_at_or_before(self, key: str, timestamp: Timestamp) -> Optional[Version]:
        """Latest version with timestamp <= ``timestamp`` (None if absent)."""
        versions = self._versions.get(key)
        if not versions:
            return None
        index = bisect_right(versions, timestamp, key=_timestamp)
        if index == 0:
            return None
        return versions[index - 1]

    def exact(self, key: str, timestamp: Timestamp) -> Optional[Version]:
        """The version with exactly ``timestamp``, if installed."""
        versions = self._versions.get(key)
        if not versions:
            return None
        index = bisect_right(versions, timestamp, key=_timestamp)
        if index > 0 and versions[index - 1].timestamp == timestamp:
            return versions[index - 1]
        return None

    def versions(self, key: str) -> List[Version]:
        """All retained versions of ``key``, oldest first."""
        return list(self._versions.get(key, []))

    def keys(self) -> Iterator[str]:
        """All keys that have at least one installed version."""
        return iter(self._versions.keys())

    def scan(self, predicate: Callable[[str, Version], bool]) -> List[Version]:
        """Latest version of every key whose latest version matches.

        This is the primitive behind predicate reads (``SELECT WHERE``) used
        by Predicate Cut Isolation.
        """
        matches = []
        for key in self._versions:
            version = self.latest(key)
            if not version.tombstone and predicate(key, version):
                matches.append(version)
        return matches
