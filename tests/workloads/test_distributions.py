"""Unit tests for key distributions."""

import random
from collections import Counter

import pytest

from repro.errors import WorkloadError
from repro.workloads.distributions import UniformKeys, ZipfianKeys


class TestUniformKeys:
    def test_range(self):
        chooser = UniformKeys(100)
        rng = random.Random(0)
        assert all(0 <= int(chooser.key(rng, "")) < 100 for _ in range(1000))

    def test_covers_keyspace(self):
        chooser = UniformKeys(10)
        rng = random.Random(1)
        seen = {int(chooser.key(rng, "")) for _ in range(1000)}
        assert seen == set(range(10))

    def test_key_formatting(self):
        chooser = UniformKeys(5)
        key = chooser.key(random.Random(0))
        assert key.startswith("user")

    def test_requires_positive_count(self):
        with pytest.raises(WorkloadError):
            UniformKeys(0)


class TestZipfianKeys:
    def test_range(self):
        chooser = ZipfianKeys(50, theta=0.99)
        rng = random.Random(0)
        assert all(0 <= chooser.choose(rng) < 50 for _ in range(2000))

    def test_skew_towards_low_ranks(self):
        chooser = ZipfianKeys(1000, theta=0.99)
        rng = random.Random(2)
        counts = Counter(chooser.choose(rng) for _ in range(20000))
        top_10 = sum(counts[i] for i in range(10))
        assert top_10 / 20000 > 0.2  # the head dominates

    def test_higher_theta_more_skew(self):
        rng_a, rng_b = random.Random(3), random.Random(3)
        mild = ZipfianKeys(1000, theta=0.5)
        strong = ZipfianKeys(1000, theta=1.2)
        mild_head = sum(1 for _ in range(5000) if mild.choose(rng_a) < 10)
        strong_head = sum(1 for _ in range(5000) if strong.choose(rng_b) < 10)
        assert strong_head > mild_head

    def test_theta_validation(self):
        with pytest.raises(WorkloadError):
            ZipfianKeys(10, theta=0.0)
        with pytest.raises(WorkloadError):
            ZipfianKeys(10, theta=2.5)
