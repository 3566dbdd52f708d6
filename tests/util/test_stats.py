"""Tests for statistics helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.stats import (
    Ewma,
    confidence_interval,
    mean_and_ci,
    percentile,
    summarize,
)


class TestEwma:
    def test_first_sample_seeds_value(self):
        ewma = Ewma(alpha=0.5)
        assert ewma.update(10.0) == 10.0

    def test_smoothing(self):
        ewma = Ewma(alpha=0.5, initial=0.0)
        assert ewma.update(10.0) == pytest.approx(5.0)
        assert ewma.update(10.0) == pytest.approx(7.5)

    def test_value_before_update_raises(self):
        with pytest.raises(ValueError):
            Ewma().value

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            Ewma(alpha=0.0)
        with pytest.raises(ValueError):
            Ewma(alpha=1.5)

    def test_reset(self):
        ewma = Ewma(alpha=0.3)
        ewma.update(5.0)
        ewma.reset()
        assert ewma.count == 0
        with pytest.raises(ValueError):
            ewma.value

    def test_count_tracks_samples(self):
        ewma = Ewma()
        for i in range(5):
            ewma.update(i)
        assert ewma.count == 5

    @given(st.lists(st.floats(0, 1000), min_size=1, max_size=50))
    def test_value_within_sample_range(self, samples):
        ewma = Ewma(alpha=0.4)
        for s in samples:
            ewma.update(s)
        assert min(samples) - 1e-9 <= ewma.value <= max(samples) + 1e-9


class TestConfidenceInterval:
    def test_contains_mean(self):
        data = [1, 2, 3, 4, 5]
        low, high = confidence_interval(data)
        assert low <= np.mean(data) <= high

    def test_single_sample_degenerate(self):
        assert confidence_interval([7.0]) == (7.0, 7.0)

    def test_higher_level_is_wider(self):
        data = list(np.random.default_rng(0).normal(0, 1, size=50))
        low90, high90 = confidence_interval(data, level=0.90)
        low99, high99 = confidence_interval(data, level=0.99)
        assert (high99 - low99) > (high90 - low90)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            confidence_interval([])

    def test_unsupported_level(self):
        with pytest.raises(ValueError):
            confidence_interval([1, 2, 3], level=0.5)

    def test_mean_and_ci(self):
        mean, half = mean_and_ci([2.0, 2.0, 2.0])
        assert mean == pytest.approx(2.0)
        assert half == pytest.approx(0.0)


class TestPercentileAndMeans:
    def test_percentile_bounds(self):
        data = list(range(101))
        assert percentile(data, 0) == 0
        assert percentile(data, 100) == 100
        assert percentile(data, 50) == 50

    def test_percentile_invalid_q(self):
        with pytest.raises(ValueError):
            percentile([1, 2], 150)

    def test_summarize_keys(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        for key in ("count", "mean", "std", "min", "p50", "p95", "max", "ci95"):
            assert key in summary
        assert summary["count"] == 4
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
