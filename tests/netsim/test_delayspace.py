"""Tests for DelaySpace."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.delayspace import DelaySpace
from repro.util.validation import ValidationError


class TestConstruction:
    def test_diagonal_forced_zero(self):
        matrix = np.full((3, 3), 5.0)
        space = DelaySpace(matrix)
        assert all(space.delay(i, i) == 0.0 for i in range(3))

    def test_negative_entries_rejected(self):
        matrix = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            DelaySpace(matrix)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            DelaySpace(np.zeros((2, 3)))

    def test_label_length_checked(self):
        with pytest.raises(ValidationError):
            DelaySpace(np.zeros((3, 3)), labels=["a", "b"])

    def test_default_labels(self):
        space = DelaySpace(np.zeros((2, 2)))
        assert space.labels == ["node-0", "node-1"]

    def test_size_and_len(self, small_delay_space):
        assert small_delay_space.size == 5
        assert len(small_delay_space) == 5

    def test_matrix_view_read_only(self, small_delay_space):
        with pytest.raises(ValueError):
            small_delay_space.matrix[0, 1] = 99.0


class TestQueries:
    def test_delay_and_rtt(self, small_delay_space):
        assert small_delay_space.delay(0, 1) == 10.0
        assert small_delay_space.rtt(0, 1) == 21.0

    def test_mean_delay_excludes_diagonal(self):
        matrix = np.array([[0.0, 2.0], [4.0, 0.0]])
        assert DelaySpace(matrix).mean_delay() == pytest.approx(3.0)

    def test_mean_delay_single_node(self):
        assert DelaySpace(np.zeros((1, 1))).mean_delay() == 0.0


class TestSampling:
    def test_no_jitter_returns_truth(self, small_delay_space):
        assert small_delay_space.sample_delay(0, 1, rng=0) == 10.0

    def test_jitter_changes_sample_but_not_truth(self, small_delay_matrix):
        space = DelaySpace(small_delay_matrix, jitter_std=2.0)
        samples = {space.sample_delay(0, 1, rng=np.random.default_rng(i)) for i in range(5)}
        assert len(samples) > 1
        assert space.delay(0, 1) == 10.0

    def test_samples_non_negative(self):
        space = DelaySpace(np.array([[0.0, 0.5], [0.5, 0.0]]), jitter_std=10.0)
        rng = np.random.default_rng(0)
        assert all(space.sample_delay(0, 1, rng) >= 0.0 for _ in range(100))

    def test_sample_rtt_is_sum_of_directions(self, small_delay_space):
        assert small_delay_space.sample_rtt(0, 1, rng=0) == pytest.approx(21.0)


class TestDerivation:
    def test_perturbed_zero_std_is_identity(self, small_delay_space):
        copy = small_delay_space.perturbed(0.0)
        assert np.allclose(copy.matrix, small_delay_space.matrix)

    def test_perturbed_changes_entries(self, small_delay_space):
        new = small_delay_space.perturbed(0.2, rng=0)
        assert not np.allclose(new.matrix, small_delay_space.matrix)
        assert np.all(new.matrix >= 0)
        assert np.all(np.diag(new.matrix) == 0)

    def test_round_trip_dict(self, small_delay_space):
        clone = DelaySpace.from_dict(small_delay_space.to_dict())
        assert np.allclose(clone.matrix, small_delay_space.matrix)
        assert clone.labels == small_delay_space.labels


class TestFromCoordinates:
    def test_distances_match_euclidean(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        space = DelaySpace.from_coordinates(points)
        assert space.delay(0, 1) == pytest.approx(5.0)

    def test_access_delay_added_both_ends(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        space = DelaySpace.from_coordinates(points, access_delay_ms=[1.0, 2.0])
        assert space.delay(0, 1) == pytest.approx(8.0)

    def test_asymmetry_noise(self):
        points = np.random.default_rng(0).uniform(0, 10, size=(6, 2))
        space = DelaySpace.from_coordinates(points, asymmetry_std=0.2, rng=1)
        assert not np.allclose(space.matrix, space.matrix.T)

    def test_invalid_points_shape(self):
        with pytest.raises(ValidationError):
            DelaySpace.from_coordinates(np.zeros(3))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 10))
    def test_symmetric_without_noise(self, n):
        points = np.random.default_rng(n).uniform(0, 50, size=(n, 2))
        space = DelaySpace.from_coordinates(points)
        assert np.allclose(space.matrix, space.matrix.T)
        assert np.all(space.matrix >= 0)
