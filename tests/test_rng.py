"""Unit tests for deterministic named random streams."""

from repro.sim.rng import (
    SPLITMIX_GAMMA,
    CounterRandom,
    RandomStreams,
    derive_key,
    derive_seed,
    splitmix64,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_name_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(43, "a")

    def test_64_bit_range(self):
        s = derive_seed(1, "x")
        assert 0 <= s < 2**64


class TestRandomStreams:
    def test_same_name_returns_same_stream(self):
        streams = RandomStreams(7)
        assert streams.stream("mobility/1") is streams.stream("mobility/1")

    def test_streams_reproducible_across_factories(self):
        a = RandomStreams(7).stream("x")
        b = RandomStreams(7).stream("x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_give_different_sequences(self):
        streams = RandomStreams(7)
        a = [streams.stream("a").random() for _ in range(10)]
        b = [streams.stream("b").random() for _ in range(10)]
        assert a != b

    def test_new_stream_does_not_perturb_existing(self):
        s1 = RandomStreams(7)
        seq_before = [s1.stream("main").random() for _ in range(5)]
        s2 = RandomStreams(7)
        s2.stream("other")  # extra consumer
        seq_after = [s2.stream("main").random() for _ in range(5)]
        assert seq_before == seq_after

    def test_spawn_namespaces(self):
        base = RandomStreams(7)
        t0 = base.spawn("trial/0")
        t1 = base.spawn("trial/1")
        assert t0.seed != t1.seed
        a = [t0.stream("x").random() for _ in range(5)]
        b = [t1.stream("x").random() for _ in range(5)]
        assert a != b

    def test_spawn_deterministic(self):
        assert RandomStreams(7).spawn("t").seed == RandomStreams(7).spawn("t").seed

    def test_seed_property(self):
        assert RandomStreams(99).seed == 99


class TestCounterRandom:
    def test_draw_k_is_top_53_bits_of_splitmix(self):
        """Draw k of a key is the top 53 bits of splitmix64(key + k * gamma)."""
        key = derive_key(derive_seed(9, "faults/churn"), 4)
        rng = CounterRandom(key)
        draws = [rng.random() for _ in range(8)]
        expected = [
            (splitmix64((key + k * SPLITMIX_GAMMA) % 2**64) >> 11) * 2.0**-53
            for k in range(8)
        ]
        assert draws == expected
        assert all(0.0 <= u < 1.0 for u in draws)
        assert len(set(draws)) == len(draws)
