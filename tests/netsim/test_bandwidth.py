"""Tests for the available-bandwidth model."""

import numpy as np
import pytest

from repro.netsim.bandwidth import BandwidthModel, DEFAULT_CAPACITY_TIERS
from repro.util.validation import ValidationError


class TestBandwidthModel:
    def test_matrix_shape_and_diagonal(self, bandwidth_model8):
        mat = bandwidth_model8.matrix()
        assert mat.shape == (8, 8)
        assert np.all(np.isinf(np.diag(mat)))

    def test_available_positive_and_bounded_by_capacity(self, bandwidth_model8):
        for src in range(8):
            for dst in range(8):
                if src == dst:
                    continue
                avail = bandwidth_model8.available(src, dst)
                cap = min(
                    bandwidth_model8.uplink_capacity[src],
                    bandwidth_model8.downlink_capacity[dst],
                )
                assert 0 <= avail <= cap

    def test_available_matches_matrix(self, bandwidth_model8):
        mat = bandwidth_model8.matrix()
        assert bandwidth_model8.available(0, 1) == pytest.approx(mat[0, 1])

    def test_capacities_come_from_tiers(self, bandwidth_model8):
        tiers = {c for c, _p in DEFAULT_CAPACITY_TIERS}
        assert set(np.unique(bandwidth_model8.uplink_capacity)) <= tiers

    def test_deterministic_given_seed(self):
        a = BandwidthModel(10, seed=5).matrix()
        b = BandwidthModel(10, seed=5).matrix()
        assert np.allclose(a, b)

    def test_advance_changes_availability_but_not_capacity(self):
        model = BandwidthModel(10, seed=1)
        before = model.matrix().copy()
        caps = model.uplink_capacity.copy()
        model.advance(5)
        after = model.matrix()
        assert not np.allclose(before, after)
        assert np.allclose(caps, model.uplink_capacity)

    def test_advance_keeps_availability_nonnegative(self):
        model = BandwidthModel(10, seed=2, drift_std=0.5)
        model.advance(50)
        mat = model.matrix()
        off = mat[~np.eye(10, dtype=bool)]
        assert np.all(off >= 0)

    def test_sample_noise_and_positive(self):
        model = BandwidthModel(6, seed=3)
        truth = model.available(0, 1)
        samples = [model.sample(0, 1, relative_error=0.2).available_mbps for _ in range(20)]
        assert all(s > 0 for s in samples)
        assert np.std(samples) > 0
        assert abs(np.mean(samples) - truth) / truth < 0.5

    def test_invalid_sizes(self):
        with pytest.raises(ValidationError):
            BandwidthModel(1)

    def test_bad_tier_probabilities(self):
        with pytest.raises(ValidationError):
            BandwidthModel(5, capacity_tiers=((100.0, 0.5), (10.0, 0.2)))

