"""Tests for social cost and price-of-anarchy helpers."""

import numpy as np
import pytest

from repro.core.cost import DelayMetric
from repro.core.policies import BestResponsePolicy, build_overlay
from repro.game.sns_game import SNSGame
from repro.game.social_cost import (
    price_of_anarchy_bound,
    social_cost,
    social_optimum_greedy,
)


@pytest.fixture
def metric6():
    rng = np.random.default_rng(33)
    delays = rng.uniform(5, 60, size=(6, 6))
    delays = (delays + delays.T) / 2
    np.fill_diagonal(delays, 0)
    return DelayMetric(delays)


class TestSocialCost:
    def test_matches_metric_social_cost(self, metric6):
        game = SNSGame(metric6, k=2)
        wiring = game.random_wiring(rng=0)
        assert social_cost(metric6, wiring) == pytest.approx(
            metric6.social_cost(wiring.to_graph())
        )

    def test_greedy_optimum_no_worse_than_equilibrium(self, metric6):
        equilibrium = build_overlay(BestResponsePolicy(), metric6, 2, rng=0, br_rounds=10)
        optimum = social_optimum_greedy(metric6, 2, rng=0, rounds=2)
        assert social_cost(metric6, optimum) <= social_cost(metric6, equilibrium) * 1.001

    def test_greedy_optimum_degrees(self, metric6):
        optimum = social_optimum_greedy(metric6, 2, rng=0, rounds=1)
        graph = optimum.to_graph()
        assert all(graph.out_degree(i) == 2 for i in range(6))

    def test_price_of_anarchy_at_least_one(self, metric6):
        equilibrium = build_overlay(BestResponsePolicy(), metric6, 2, rng=1, br_rounds=10)
        optimum = social_optimum_greedy(metric6, 2, rng=1, rounds=2)
        ratio = price_of_anarchy_bound(metric6, equilibrium, optimum)
        assert ratio >= 0.999

    def test_price_of_anarchy_small_for_sns(self, metric6):
        """The SNS literature shows equilibria within a constant factor of optimal."""
        equilibrium = build_overlay(BestResponsePolicy(), metric6, 2, rng=2, br_rounds=10)
        optimum = social_optimum_greedy(metric6, 2, rng=2, rounds=2)
        assert price_of_anarchy_bound(metric6, equilibrium, optimum) < 2.0

    def test_identical_wirings_ratio_one(self, metric6):
        game = SNSGame(metric6, k=2)
        wiring = game.random_wiring(rng=5)
        assert price_of_anarchy_bound(metric6, wiring, wiring) == pytest.approx(1.0)
