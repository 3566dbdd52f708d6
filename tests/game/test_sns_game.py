"""Tests for the SNS game machinery."""

import numpy as np
import pytest

from repro.core.cost import DelayMetric
from repro.core.policies import BestResponsePolicy, KRandomPolicy, build_overlay
from repro.game.sns_game import SNSGame, is_nash_equilibrium
from repro.util.validation import ValidationError


@pytest.fixture
def game8():
    rng = np.random.default_rng(21)
    delays = rng.uniform(5, 100, size=(8, 8))
    delays = (delays + delays.T) / 2
    np.fill_diagonal(delays, 0)
    return SNSGame(DelayMetric(delays), k=2)


class TestGameBasics:
    def test_invalid_k(self, game8):
        with pytest.raises(ValidationError):
            SNSGame(game8.metric, k=0)
        with pytest.raises(ValidationError):
            SNSGame(game8.metric, k=8)

    def test_player_best_response_no_worse(self, game8):
        wiring = _random_wiring(game8, 0)
        evaluator, result = game8.player_best_response(wiring, 0)
        current_cost = evaluator.evaluate(wiring.wiring_of(0).neighbors)
        assert result.cost <= current_cost + 1e-9


def _random_wiring(game, seed):
    return build_overlay(KRandomPolicy(), game.metric, game.k, rng=seed)


def _dynamics(game, rounds, seed):
    """Best-response dynamics from a random wiring, at most ``rounds`` rounds."""
    return build_overlay(
        BestResponsePolicy(), game.metric, game.k, rng=seed, br_rounds=rounds
    )


class TestDynamics:
    def test_dynamics_converge(self, game8):
        # A round that re-wires nobody ends the dynamics: more rounds allowed
        # change nothing.
        wiring = _dynamics(game8, 15, 0)
        longer = _dynamics(game8, 50, 0)
        for node in range(8):
            assert wiring.wiring_of(node) == longer.wiring_of(node)

    def test_converged_wiring_is_nash(self, game8):
        wiring = _dynamics(game8, 15, 0)
        assert is_nash_equilibrium(game8, wiring, tolerance=1e-6)

    def test_random_wiring_usually_not_nash(self, game8):
        wiring = _random_wiring(game8, 3)
        assert not is_nash_equilibrium(game8, wiring)

    def test_social_cost_non_increasing_trend(self, game8):
        # Selfish moves need not monotonically improve social cost, but the
        # equilibrium should not be drastically worse than the start (zero
        # rounds keep the random seed wiring).
        start = _dynamics(game8, 0, 1).to_graph()
        end = _dynamics(game8, 15, 1).to_graph()
        assert game8.metric.social_cost(end) <= game8.metric.social_cost(start) * 1.5

    def test_dynamics_degrees_preserved(self, game8):
        graph = _dynamics(game8, 10, 2).to_graph()
        assert all(graph.out_degree(i) == 2 for i in range(8))
