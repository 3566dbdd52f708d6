"""Tests for the synthetic PlanetLab generators."""

import numpy as np
import pytest

from repro.netsim.planetlab import (
    PAPER_REGION_MIX,
    Region,
    synthetic_planetlab,
    synthetic_planetlab_trace,
    uniform_delay_space,
)
from repro.util.validation import ValidationError


class TestSyntheticPlanetlab:
    def test_paper_mix_at_n50(self):
        _space, nodes = synthetic_planetlab(50, seed=0)
        counts = {}
        for node in nodes:
            counts[node.region] = counts.get(node.region, 0) + 1
        assert counts == PAPER_REGION_MIX

    def test_size_and_labels(self):
        space, nodes = synthetic_planetlab(20, seed=0)
        assert space.size == 20
        assert len(nodes) == 20
        assert len(set(space.labels)) == 20

    def test_deterministic_for_same_seed(self):
        a, _ = synthetic_planetlab(15, seed=3)
        b, _ = synthetic_planetlab(15, seed=3)
        assert np.allclose(a.matrix, b.matrix)

    def test_different_seeds_differ(self):
        a, _ = synthetic_planetlab(15, seed=3)
        b, _ = synthetic_planetlab(15, seed=4)
        assert not np.allclose(a.matrix, b.matrix)

    def test_intercontinental_longer_than_intraregion(self):
        space, nodes = synthetic_planetlab(50, seed=1)
        na = [n.index for n in nodes if n.region is Region.NORTH_AMERICA]
        asia = [n.index for n in nodes if n.region is Region.ASIA]
        intra = np.mean([space.delay(na[0], j) for j in na[1:6]])
        inter = np.mean([space.delay(na[0], j) for j in asia])
        assert inter > intra * 2

    def test_delays_realistic_range(self):
        space, _nodes = synthetic_planetlab(50, seed=2)
        off_diag = space.matrix[~np.eye(50, dtype=bool)]
        assert off_diag.min() > 0
        assert off_diag.max() < 1000.0  # below one second

    def test_custom_region_mix(self):
        mix = {Region.EUROPE: 5, Region.ASIA: 5}
        _space, nodes = synthetic_planetlab(10, region_mix=mix, seed=0)
        assert sum(1 for n in nodes if n.region is Region.EUROPE) == 5

    def test_bad_region_mix_total(self):
        with pytest.raises(ValidationError):
            synthetic_planetlab(10, region_mix={Region.EUROPE: 3}, seed=0)

    def test_too_small_n_rejected(self):
        with pytest.raises(ValidationError):
            synthetic_planetlab(1)


class TestTraceAndUniform:
    def test_trace_size(self):
        space = synthetic_planetlab_trace(60, seed=0)
        assert space.size == 60

    def test_uniform_delay_space_bounds(self):
        space = uniform_delay_space(10, low_ms=5, high_ms=20, seed=0)
        off_diag = space.matrix[~np.eye(10, dtype=bool)]
        assert off_diag.min() >= 5.0
        assert off_diag.max() <= 20.0

    def test_uniform_symmetric_flag(self):
        sym = uniform_delay_space(8, symmetric=True, seed=0)
        asym = uniform_delay_space(8, symmetric=False, seed=0)
        assert np.allclose(sym.matrix, sym.matrix.T)
        assert not np.allclose(asym.matrix, asym.matrix.T)

    def test_uniform_invalid_range(self):
        with pytest.raises(ValidationError):
            uniform_delay_space(5, low_ms=10, high_ms=5)
