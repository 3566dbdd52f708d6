"""Tests for RNG plumbing."""

import numpy as np
import pytest

from repro.util.rng import as_generator, spawn_generators


class TestAsGenerator:
    def test_none_returns_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(42).integers(0, 1000, size=5)
        b = as_generator(42).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).integers(0, 10**9)
        b = as_generator(2).integers(0, 10**9)
        assert a != b

    def test_generator_passthrough(self):
        gen = np.random.default_rng(7)
        assert as_generator(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(99)
        gen = as_generator(seq)
        assert isinstance(gen, np.random.Generator)


class TestSpawnGenerators:
    def test_count(self):
        children = spawn_generators(5, 4)
        assert len(children) == 4

    def test_children_independent_streams(self):
        children = spawn_generators(5, 2)
        a = children[0].integers(0, 10**9, size=10)
        b = children[1].integers(0, 10**9, size=10)
        assert not np.array_equal(a, b)

    def test_deterministic_from_int_seed(self):
        a = spawn_generators(11, 3)[2].integers(0, 10**9, size=5)
        b = spawn_generators(11, 3)[2].integers(0, 10**9, size=5)
        assert np.array_equal(a, b)

    def test_zero_count(self):
        assert spawn_generators(1, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(1, -1)

    def test_spawn_from_generator(self):
        gen = np.random.default_rng(3)
        children = spawn_generators(gen, 2)
        assert len(children) == 2
