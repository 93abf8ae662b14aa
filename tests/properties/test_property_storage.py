"""Property-based tests (hypothesis) for the storage substrate."""

from hypothesis import given, settings, strategies as st

from repro.storage.kvstore import VersionedStore
from repro.storage.records import Timestamp, Version

timestamps = st.builds(Timestamp,
                       sequence=st.integers(min_value=0, max_value=1000),
                       client_id=st.integers(min_value=0, max_value=20))

versions = st.builds(
    Version,
    key=st.sampled_from(["a", "b", "c"]),
    value=st.integers(),
    timestamp=timestamps,
    txn_id=st.integers(min_value=1, max_value=10_000),
)


class TestTimestampProperties:
    @given(timestamps, timestamps)
    def test_total_order(self, a, b):
        assert (a < b) + (b < a) + (a == b) == 1

    @given(timestamps, timestamps, timestamps)
    def test_transitivity(self, a, b, c):
        if a < b and b < c:
            assert a < c


def _merged(*replicas):
    """Anti-entropy's merge: a store holding every version the replicas do."""
    store = VersionedStore()
    for replica in replicas:
        for key in list(replica.keys()):
            for version in replica.versions(key):
                store.install(version)
    return store


def _holding(*versions):
    store = VersionedStore()
    for version in versions:
        store.install(version)
    return store


class TestLastWriterWinsProperties:
    """Merging replicas is last-writer-wins per key: commutative, associative
    and idempotent, so replicas converge however anti-entropy pairs them."""

    @given(versions, versions)
    def test_commutative(self, a, b):
        left = _merged(_holding(a), _holding(b))
        right = _merged(_holding(b), _holding(a))
        for key in {a.key, b.key}:
            assert left.latest(key).timestamp == right.latest(key).timestamp

    @given(versions, versions, versions)
    def test_associative_on_timestamps(self, a, b, c):
        left = _merged(_merged(_holding(a), _holding(b)), _holding(c))
        right = _merged(_holding(a), _merged(_holding(b), _holding(c)))
        for key in {a.key, b.key, c.key}:
            assert left.latest(key).timestamp == right.latest(key).timestamp

    @given(versions)
    def test_idempotent(self, a):
        store = _holding(a)
        assert store.install(a) is False
        assert store.latest(a.key) is a
        assert store.versions(a.key) == [a]


class TestVersionedStoreProperties:
    @given(st.lists(versions, max_size=40))
    @settings(max_examples=60)
    def test_latest_has_max_timestamp(self, batch):
        """After any install sequence, latest() per key is the max-timestamp
        version among the installs that succeeded (convergence / LWW)."""
        store = VersionedStore()
        accepted = {}
        for version in batch:
            if store.install(version):
                current = accepted.get(version.key)
                if current is None or version.timestamp > current.timestamp:
                    accepted[version.key] = version
        for key, expected in accepted.items():
            assert store.latest(key).timestamp == expected.timestamp

    @given(st.lists(versions, max_size=40))
    @settings(max_examples=60)
    def test_install_order_does_not_matter(self, batch):
        """Replica convergence: any two replicas that receive the same set of
        versions in different orders agree on every latest value."""
        forward, backward = VersionedStore(), VersionedStore()
        for version in batch:
            forward.install(version)
        for version in reversed(batch):
            backward.install(version)
        keys = set(list(forward.keys()) + list(backward.keys()))
        for key in keys:
            assert forward.latest(key).timestamp == backward.latest(key).timestamp

    @given(st.lists(versions, max_size=40))
    @settings(max_examples=60)
    def test_versions_sorted_by_timestamp(self, batch):
        store = VersionedStore()
        for version in batch:
            store.install(version)
        for key in store.keys():
            stamps = [v.timestamp for v in store.versions(key)]
            assert stamps == sorted(stamps)

    @given(st.lists(versions, max_size=30), timestamps)
    @settings(max_examples=60)
    def test_latest_at_or_before_respects_bound(self, batch, bound):
        store = VersionedStore()
        for version in batch:
            store.install(version)
        for key in store.keys():
            found = store.latest_at_or_before(key, bound)
            if found is not None:
                assert found.timestamp <= bound
