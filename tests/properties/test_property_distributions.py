"""Property tests for the workload key distributions.

Three properties per chooser family:

* **shape** — the zipfian probability mass is monotone non-increasing in
  rank (exactly, on the analytic distribution; statistically, on samples),
* **support** — every key index is reachable: samples stay in range and,
  for small keyspaces, every key is eventually drawn,
* **determinism** — equal seeds yield identical sample streams, which is
  what makes benchmark runs replayable.

And one for the uniform key draw, which runs ``randrange``'s rejection loop
in its own frame: **equivalence** — it draws what ``randrange`` draws, call
for call, leaves the generator where ``randrange`` leaves it, and the YCSB
streams built on it are the ones built on ``randrange``.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.hat.transaction import Operation
from repro.workloads.distributions import UniformKeys, ZipfianKeys
from repro.workloads.ycsb import YCSBArrivalSource, YCSBConfig, YCSBWorkload

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)
KEY_COUNTS = st.integers(min_value=2, max_value=400)
THETAS = st.floats(min_value=0.2, max_value=1.5, allow_nan=False)


def sample(chooser, seed, count):
    rng = random.Random(seed)
    return [chooser.choose(rng) for _ in range(count)]


class TestZipfianShape:
    @given(key_count=KEY_COUNTS, theta=THETAS)
    @settings(max_examples=50, deadline=None)
    def test_analytic_mass_monotone_non_increasing_in_rank(self, key_count, theta):
        chooser = ZipfianKeys(key_count, theta)
        cumulative = chooser._cumulative
        masses = [cumulative[0]] + [
            b - a for a, b in zip(cumulative, cumulative[1:])
        ]
        assert len(masses) == key_count
        # 1/rank^theta is strictly decreasing; allow float-rounding jitter.
        assert all(earlier >= later - 1e-12
                   for earlier, later in zip(masses, masses[1:]))
        assert cumulative[-1] == 1.0

    @given(key_count=st.integers(min_value=2, max_value=64),
           theta=st.floats(min_value=0.4, max_value=1.2, allow_nan=False),
           seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_sampled_frequencies_favour_low_ranks(self, key_count, theta, seed):
        """The head half of the rank order out-draws the tail half.

        A per-rank monotonicity check on finite samples would be noise; the
        aggregate head-versus-tail comparison (head = the first ceil(n/2)
        ranks, which always holds a strict majority of the zipfian mass)
        has a >= 7 sigma margin across this strategy's range at 4000 draws.
        """
        chooser = ZipfianKeys(key_count, theta)
        draws = sample(chooser, seed, 4000)
        half = (key_count + 1) // 2
        head = sum(1 for value in draws if value < half)
        assert head > len(draws) - head

    @given(key_count=st.integers(min_value=2, max_value=64),
           theta=st.floats(min_value=0.4, max_value=1.2, allow_nan=False),
           seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_first_rank_out_draws_last_rank(self, key_count, theta, seed):
        chooser = ZipfianKeys(key_count, theta)
        draws = sample(chooser, seed, 4000)
        assert draws.count(0) > draws.count(key_count - 1)


class TestSupport:
    @given(key_count=KEY_COUNTS, theta=THETAS, seed=SEEDS)
    @settings(max_examples=50, deadline=None)
    def test_zipfian_samples_stay_in_range(self, key_count, theta, seed):
        chooser = ZipfianKeys(key_count, theta)
        assert all(0 <= value < key_count
                   for value in sample(chooser, seed, 500))

    @given(key_count=KEY_COUNTS, seed=SEEDS)
    @settings(max_examples=50, deadline=None)
    def test_uniform_samples_stay_in_range(self, key_count, seed):
        chooser = UniformKeys(key_count)
        assert all(0 <= value < key_count
                   for value in sample(chooser, seed, 500))

    @given(key_count=st.integers(min_value=2, max_value=8),
           theta=st.floats(min_value=0.2, max_value=1.2, allow_nan=False),
           seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_every_key_reachable_zipfian(self, key_count, theta, seed):
        """Even the rarest rank has p >= 0.037 here; missing it in 2000
        draws has probability under e^-70."""
        chooser = ZipfianKeys(key_count, theta)
        assert set(sample(chooser, seed, 2000)) == set(range(key_count))

    @given(key_count=st.integers(min_value=2, max_value=16), seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_every_key_reachable_uniform(self, key_count, seed):
        chooser = UniformKeys(key_count)
        assert set(sample(chooser, seed, 2000)) == set(range(key_count))


class TestDeterminism:
    @given(key_count=KEY_COUNTS, theta=THETAS, seed=SEEDS)
    @settings(max_examples=50, deadline=None)
    def test_equal_seeds_equal_zipfian_streams(self, key_count, theta, seed):
        a = sample(ZipfianKeys(key_count, theta), seed, 200)
        b = sample(ZipfianKeys(key_count, theta), seed, 200)
        assert a == b

    @given(key_count=KEY_COUNTS, seed=SEEDS)
    @settings(max_examples=50, deadline=None)
    def test_equal_seeds_equal_uniform_streams(self, key_count, seed):
        a = sample(UniformKeys(key_count), seed, 200)
        b = sample(UniformKeys(key_count), seed, 200)
        assert a == b

    @given(key_count=KEY_COUNTS, theta=THETAS, seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_key_formatting_matches_choose(self, key_count, theta, seed):
        chooser = ZipfianKeys(key_count, theta)
        indices = sample(chooser, seed, 50)
        rng = random.Random(seed)
        assert [chooser.key(rng) for _ in range(50)] == \
            [f"user{index}" for index in indices]


#: Keyspace sizes at the rejection loop's edges: one key (a one-bit draw
#: that rejects half the time), powers of two (no rejection) and one past
#: them (rejection just under half the time), and the paper's 100 000.
EDGE_KEY_COUNTS = st.one_of(
    st.sampled_from([1, 2, 3, 100_000]),
    st.integers(min_value=0, max_value=70).map(lambda k: 2**k),
    st.integers(min_value=0, max_value=70).map(lambda k: 2**k + 1))
ANY_SEEDS = st.integers()


def reference_operations(rng, config, write_value):
    """One YCSB transaction's operations, drawn with ``randrange``."""
    operations = []
    for op_index in range(config.operations_per_transaction):
        key = f"user{rng.randrange(config.key_count)}"
        if rng.random() < config.write_proportion:
            operations.append(Operation.write(key, write_value(op_index)))
        else:
            operations.append(Operation.read(key))
    return operations


class TestUniformKeyIsRandrange:
    @given(key_count=EDGE_KEY_COUNTS, seed=ANY_SEEDS)
    @settings(max_examples=200, deadline=None)
    def test_each_draw_is_the_randrange_draw(self, key_count, seed):
        chooser, ours, theirs = (UniformKeys(key_count), random.Random(seed),
                                 random.Random(seed))
        for _ in range(64):
            assert chooser.key(ours) == f"user{theirs.randrange(key_count)}"
        assert ours.getstate() == theirs.getstate()

    @given(key_count=EDGE_KEY_COUNTS, seed=ANY_SEEDS,
           write_proportion=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
           operations=st.integers(min_value=1, max_value=12))
    @settings(max_examples=50, deadline=None)
    def test_ycsb_streams_are_the_randrange_streams(
            self, key_count, seed, write_proportion, operations):
        config = YCSBConfig(operations_per_transaction=operations,
                            write_proportion=write_proportion,
                            key_count=key_count)
        rng, written = random.Random(seed), [0]

        def next_value(_op_index):
            written[0] += 1
            return f"v{written[0]}"

        stream = YCSBWorkload(config, seed=seed, session_id=7).transactions(50)
        assert [list(txn.operations) for txn in stream] == [
            reference_operations(rng, config, next_value) for _ in range(50)]
        assert {txn.session_id for txn in stream} == {7}
        assert all(type(op) is Operation for txn in stream
                   for op in txn.operations)
        source = YCSBArrivalSource(config, seed=seed)
        for user_id, arrival in ((0, 0), (3, 1), (12_345, 678)):
            rng.seed(f"{seed}:{user_id}:{arrival}")
            expected = reference_operations(
                rng, config, lambda i: f"u{user_id}a{arrival}v{i}")
            assert list(source.transaction_for(user_id, arrival).operations) \
                == expected
