"""Unit tests for the latency models (calibrated to Table 1)."""

import random
from math import fsum, log
from statistics import NormalDist

import pytest

from repro.errors import NetworkError
from repro.net.latency import (
    EC2LatencyModel,
    FixedLatencyModel,
    LOGNORMAL_MU,
    LOGNORMAL_SIGMA,
    MULTIPLIER_BLOCK,
    MULTIPLIERS,
    TABLE_1C_RTT_MS,
    cross_region_rtt,
)
from repro.net.network import Network
from repro.net.topology import ec2_topology
from repro.sim import Environment, RandomStreams


@pytest.fixture
def model():
    topology = ec2_topology(zones_per_region=2, hosts_per_zone=2)
    return EC2LatencyModel(topology)


class TestFixedLatencyModel:
    def test_constant(self):
        model = FixedLatencyModel(2.5)
        rng = random.Random(0)
        assert model.one_way(rng, "a", "b") == 2.5
        assert model.mean_rtt("a", "b") == 5.0

    def test_negative_rejected(self):
        with pytest.raises(NetworkError):
            FixedLatencyModel(-1.0)


class TestCrossRegionTable:
    def test_symmetric_lookup(self):
        assert cross_region_rtt("CA", "OR") == cross_region_rtt("OR", "CA") == 22.5

    def test_slowest_link_matches_paper(self):
        # Sao Paulo <-> Singapore is the paper's slowest pair: 362.8 ms.
        assert cross_region_rtt("SP", "SI") == pytest.approx(362.8)

    def test_all_pairs_present(self):
        regions = ["CA", "OR", "VA", "TO", "IR", "SY", "SP", "SI"]
        for i, a in enumerate(regions):
            for b in regions[i + 1:]:
                assert cross_region_rtt(a, b) > 0

    def test_same_region_rejected(self):
        with pytest.raises(NetworkError):
            cross_region_rtt("CA", "CA")


class TestEC2LatencyModel:
    def test_mean_rtt_by_scope(self, model):
        # Same host < intra-AZ < inter-AZ < cross-region.
        same = model.mean_rtt("VA-0-0", "VA-0-0")
        intra = model.mean_rtt("VA-0-0", "VA-0-1")
        inter = model.mean_rtt("VA-0-0", "VA-1-0")
        cross = model.mean_rtt("VA-0-0", "OR-0-0")
        assert same < intra < inter < cross

    def test_cross_region_uses_table_1c(self, model):
        assert model.mean_rtt("CA-0-0", "OR-0-0") == pytest.approx(22.5)
        assert model.mean_rtt("SP-0-0", "SI-0-0") == pytest.approx(362.8)

    def test_sample_mean_converges_to_calibration(self, model):
        rng = random.Random(1)
        samples = [model.sample_rtt(rng, "VA-0-0", "OR-0-0") for _ in range(4000)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(TABLE_1C_RTT_MS[("OR", "VA")], rel=0.1)

    def test_samples_have_dispersion(self, model):
        rng = random.Random(2)
        samples = [model.sample_rtt(rng, "SP-0-0", "SI-0-0") for _ in range(1000)]
        assert max(samples) > 1.3 * min(samples)

    def test_samples_are_positive(self, model):
        rng = random.Random(3)
        for _ in range(200):
            assert model.one_way(rng, "VA-0-0", "VA-0-1") > 0


def _table_multipliers(rng, count):
    """The multiplier sequence, spelled out: a block of 4096 table indices
    per ``randbytes`` draw, each index two bytes little-endian, the next
    block drawn when the index runs off the end."""
    drawn, block, index = [], [], 0
    for _ in range(count):
        if index >= len(block):
            data = rng.randbytes(2 * MULTIPLIER_BLOCK)
            block = [MULTIPLIERS[int.from_bytes(data[at:at + 2], "little")]
                     for at in range(0, len(data), 2)]
            index = 0
        drawn.append(block[index])
        index += 1
    return drawn


class TestMultiplierTable:
    """The quantile table stands in for the lognormal it tabulates."""

    def test_the_table_has_mean_one(self):
        assert len(MULTIPLIERS) == 1 << 16
        assert fsum(MULTIPLIERS) / len(MULTIPLIERS) == pytest.approx(1.0, abs=1e-12)
        assert list(MULTIPLIERS) == sorted(MULTIPLIERS)

    def test_draws_follow_the_lognormal_cdf(self, model):
        """50 000 draws against the analytic CDF, ``NormalDist().cdf`` of
        ``log x``: the Kolmogorov-Smirnov distance stays under its
        alpha = 0.01 critical value, 1.628 / sqrt(n)."""
        stream = model.multipliers(random.Random(11))
        draws = sorted(next(stream) for _ in range(50_000))
        cdf = NormalDist(LOGNORMAL_MU, LOGNORMAL_SIGMA).cdf
        distance = max(max((rank + 1) / len(draws) - cdf(log(x)),
                           cdf(log(x)) - rank / len(draws))
                       for rank, x in enumerate(draws))
        assert distance < 1.628 / len(draws) ** 0.5

    def test_a_block_is_the_little_endian_16_bit_chunks_of_randbytes(self, model):
        """The first block, indexed by hand: byte order never changes a
        draw."""
        stream = model.multipliers(random.Random(9))
        data = random.Random(9).randbytes(2 * MULTIPLIER_BLOCK)
        assert [next(stream) for _ in range(MULTIPLIER_BLOCK)] == [
            MULTIPLIERS[int.from_bytes(data[2 * i:2 * i + 2], "little")]
            for i in range(MULTIPLIER_BLOCK)]


class TestMultiplierStream:
    """The network draws its dispersion from the model's stream directly;
    the values, their order and the draws behind them are the block
    sampler's, across a block boundary, whatever the seed."""

    COUNT = 4096 + 50

    @pytest.mark.parametrize("seed", [0, 1, 7, 2013])
    def test_the_network_delays_messages_by_the_block_samplers_sequence(self, seed):
        topology = ec2_topology(zones_per_region=2, hosts_per_zone=2)
        model = EC2LatencyModel(topology)
        env = Environment()
        network = Network(env, topology, model, streams=RandomStreams(seed))
        arrived = {}
        network.register("OR-0-0", lambda m: arrived.setdefault(m.payload, env.now))
        for index in range(self.COUNT):
            network.send("VA-0-0", "OR-0-0", "ping", index)
        env.run()
        half_rtt = model.mean_rtt("VA-0-0", "OR-0-0") * 0.5
        expected = _table_multipliers(
            RandomStreams(seed).stream("network"), self.COUNT)
        assert [arrived[index] for index in range(self.COUNT)] == [
            half_rtt * multiplier * 1.0 for multiplier in expected]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_one_way_draws_the_same_sequence_from_a_callers_stream(self, model, seed):
        rng = random.Random(seed)
        samples = [model.one_way(rng, "VA-0-0", "VA-0-1")
                   for _ in range(self.COUNT)]
        half_rtt = model.mean_rtt("VA-0-0", "VA-0-1") * 0.5
        assert samples == [half_rtt * multiplier for multiplier in
                           _table_multipliers(random.Random(seed), self.COUNT)]
        # One stream per random source, shared by everyone who draws from it.
        assert model.multipliers(rng) is model.multipliers(rng)
        assert model.multipliers(rng) is not model.multipliers(random.Random(seed))

    def test_a_block_is_drawn_only_when_the_previous_one_runs_out(self, model):
        rng, untouched = random.Random(5), random.Random(5)
        stream = model.multipliers(rng)
        assert rng.getstate() == untouched.getstate()  # nothing drawn yet
        next(stream)
        untouched.randbytes(2 * MULTIPLIER_BLOCK)
        assert rng.getstate() == untouched.getstate()
        for _ in range(MULTIPLIER_BLOCK - 1):
            next(stream)
        assert rng.getstate() == untouched.getstate()  # still the first block
        next(stream)
        untouched.randbytes(2 * MULTIPLIER_BLOCK)
        assert rng.getstate() == untouched.getstate()

    def test_a_model_without_dispersion_keeps_its_constant(self):
        topology = ec2_topology(zones_per_region=1, hosts_per_zone=2)
        env = Environment()
        network = Network(env, topology, FixedLatencyModel(0.3))
        arrived = []
        network.register("VA-0-1", lambda m: arrived.append(env.now))
        network.send("VA-0-0", "VA-0-1", "ping")
        network.degrade(3.0)
        network.send("VA-0-0", "VA-0-1", "ping")
        env.run()
        assert arrived == [0.3, 0.3 * 3.0]
