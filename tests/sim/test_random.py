"""Unit tests for deterministic random streams."""

from repro.sim import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_sequence(self):
        a = RandomStreams(7).stream("network")
        b = RandomStreams(7).stream("network")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_are_independent(self):
        streams = RandomStreams(7)
        network = [streams.stream("network").random() for _ in range(5)]
        workload = [streams.stream("workload").random() for _ in range(5)]
        assert network != workload

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x")
        b = RandomStreams(2).stream("x")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_stream_is_cached(self):
        streams = RandomStreams(0)
        assert streams.stream("a") is streams.stream("a")
