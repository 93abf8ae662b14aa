"""Differential property: the two-map store answers what the one-list store
answered, install for install and read for read.

``repro.storage.kvstore.VersionedStore`` keeps each key's newest version in
one map and its older retained versions, oldest first, in another.  The
reference (``kvstore_reference.py``) is the store as it stood before: one
list of versions per key.  Generated install sequences touch one to three
keys with timestamps in order, out of order and repeated, under every
retention bound a test can tell apart (``keep_versions`` None, 1, 2, 3).
After every install both stores agree on its return value, on every read
of every key (touched or not) at every timestamp drawn, on the order of
``keys()``, on ``scan`` and on ``LSMStore.get_latest``.
"""

from hypothesis import given, settings, strategies as st

from kvstore_reference import VersionedStore as ReferenceStore
from repro.storage.kvstore import VersionedStore
from repro.storage.lsm import LSMStore
from repro.storage.records import NULL_TIMESTAMP, Timestamp, Version

KEYS = ["a", "b", "c"]
#: A small timestamp space, so that sequences repeat and interleave.
timestamps = st.builds(Timestamp, st.integers(0, 6), st.integers(0, 1))


@st.composite
def install_sequences(draw):
    keys = KEYS[:draw(st.integers(1, 3))]
    drawn = draw(st.lists(st.tuples(st.sampled_from(keys), timestamps,
                                    st.booleans()), max_size=25))
    if draw(st.booleans()):  # in timestamp order, as most runs install
        drawn.sort(key=lambda entry: entry[1])
    return [Version(key, index, timestamp, index, tombstone=tombstone)
            for index, (key, timestamp, tombstone) in enumerate(drawn)]


def _reads(store, probes):
    """Every read the store answers, for every key and probe timestamp."""
    return ([(store.latest(key), store.versions(key),
              [store.exact(key, t) for t in probes],
              [store.latest_at_or_before(key, t) for t in probes])
             for key in KEYS + ["unwritten"]],
            list(store.keys()),
            store.scan(lambda key, version: version.value % 2 == 0))


@given(install_sequences(), st.sampled_from([None, 1, 2, 3]))
@settings(max_examples=300, deadline=None)
def test_the_two_maps_answer_what_the_one_list_answered(versions, keep):
    store, reference = VersionedStore(keep), ReferenceStore(keep)
    lsm = LSMStore(keep)
    probes = [NULL_TIMESTAMP] + sorted({v.timestamp for v in versions}) + [
        Timestamp(3, 0), Timestamp(7, 0)]
    for version in versions:
        assert store.install(version) == reference.install(version)
        lsm.put(version)
        assert _reads(store, probes) == _reads(reference, probes)
        assert [lsm.get_latest(key)[0] for key in KEYS + ["unwritten"]] == [
            reference.latest(key) for key in KEYS + ["unwritten"]]
