"""Tests for the preference-skew ablation (``ablation-preferences``)."""

import numpy as np
import pytest

from repro.scenario import default_spec, run_spec


class TestPreferenceSkew:
    @pytest.fixture(scope="class")
    def result(self):
        return run_spec(
            default_spec("ablation-preferences").override(
                n=16,
                k_grid=(3,),
                seed=5,
                br_rounds=2,
                params={"exponents": [0.0, 1.5], "k": 3},
            )
        )

    def test_br_normalised_to_one(self, result):
        assert all(v == pytest.approx(1.0) for v in result.series["best-response"].y)

    def test_heuristics_no_better_than_br(self, result):
        for label in ("k-random", "k-regular", "k-closest"):
            assert all(v >= 0.9 for v in result.series[label].y), label

    def test_two_skew_levels_recorded(self, result):
        assert result.series["k-random"].x == [0.0, 1.5]

    def test_skew_does_not_shrink_br_advantage_much(self, result):
        """BR leverages skew, so its edge should not collapse as skew grows."""
        mean_at = lambda idx: np.mean(
            [
                result.series[l].y[idx]
                for l in ("k-random", "k-regular", "k-closest")
            ]
        )
        assert mean_at(1) >= mean_at(0) * 0.75
