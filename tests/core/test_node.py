"""Tests for per-node state and re-wiring decisions."""

import numpy as np
import pytest

from repro.core.cost import DelayMetric
from repro.core.hybrid import HybridBRPolicy
from repro.core.node import EgoistNode
from repro.core.policies import BestResponsePolicy, KRandomPolicy
from repro.core.wiring import Wiring
from repro.routing.graph import OverlayGraph


@pytest.fixture
def metric8():
    rng = np.random.default_rng(11)
    delays = rng.uniform(5, 80, size=(8, 8))
    delays = (delays + delays.T) / 2
    np.fill_diagonal(delays, 0)
    return DelayMetric(delays)


def ring_residual(metric, exclude):
    n = metric.size
    others = [i for i in range(n) if i != exclude]
    graph = OverlayGraph(n)
    for idx, node in enumerate(others):
        nxt = others[(idx + 1) % len(others)]
        graph.add_edge(node, nxt, metric.link_weight(node, nxt))
    return graph


class TestLifecycle:
    def test_initial_state(self):
        node = EgoistNode(0, BestResponsePolicy(), 3, seed=0)
        assert node.online
        assert node.wiring is None
        assert node.rewire_count == 0

    def test_offline_drops_wiring(self):
        node = EgoistNode(0, BestResponsePolicy(), 3, seed=0)
        node.wiring = Wiring.of(0, [1, 2])
        node.go_offline()
        assert not node.online
        assert node.wiring is None
        node.go_online()
        assert node.online

    def test_drop_neighbors(self):
        node = EgoistNode(0, BestResponsePolicy(), 3, seed=0)
        node.wiring = Wiring.of(0, [1, 2, 3], donated=[3])
        assert node.drop_neighbors({2})
        assert node.wiring.neighbors == frozenset({1, 3})
        assert node.wiring.donated == frozenset({3})
        assert not node.drop_neighbors({7})


class TestRewiring:
    def test_first_opportunity_wires(self, metric8):
        node = EgoistNode(0, BestResponsePolicy(), 3, seed=0)
        decision = node.consider_rewiring(
            metric8, ring_residual(metric8, 0), list(range(8))
        )
        assert decision.rewired
        assert node.wiring is not None
        assert len(node.wiring.neighbors) == 3
        assert node.rewire_count == 1

    def test_stable_metric_no_second_rewire(self, metric8):
        node = EgoistNode(0, BestResponsePolicy(), 3, seed=0)
        residual = ring_residual(metric8, 0)
        active = list(range(8))
        node.consider_rewiring(metric8, residual, active)
        second = node.consider_rewiring(metric8, residual, active)
        assert not second.rewired
        assert node.rewire_count == 1

    def test_epsilon_suppresses_marginal_improvements(self, metric8):
        strict = EgoistNode(0, BestResponsePolicy(), 3, epsilon=0.5, seed=0)
        residual = ring_residual(metric8, 0)
        active = list(range(8))
        strict.consider_rewiring(metric8, residual, active)
        # Perturb the metric slightly: a 50% improvement threshold should
        # prevent re-wiring for small changes.
        perturbed = DelayMetric(metric8.link_weight_matrix() * 1.01)
        decision = strict.consider_rewiring(perturbed, residual, active)
        assert not decision.rewired

    def test_random_policy_rewires_only_on_set_change(self, metric8):
        node = EgoistNode(0, KRandomPolicy(), 3, seed=1)
        residual = ring_residual(metric8, 0)
        active = list(range(8))
        first = node.consider_rewiring(metric8, residual, active)
        assert first.rewired
        # A random policy reselects every time; the decision structure must
        # stay consistent (old/new sets recorded).
        second = node.consider_rewiring(metric8, residual, active)
        assert second.old_neighbors == first.new_neighbors

    def test_hybrid_policy_marks_donated(self, metric8):
        node = EgoistNode(0, HybridBRPolicy(k2=2), 4, seed=0)
        decision = node.consider_rewiring(
            metric8, ring_residual(metric8, 0), list(range(8))
        )
        assert decision.rewired
        assert len(node.wiring.donated) == 2

    def test_decision_costs_consistent(self, metric8):
        node = EgoistNode(0, BestResponsePolicy(), 2, seed=0)
        decision = node.consider_rewiring(
            metric8, ring_residual(metric8, 0), list(range(8))
        )
        assert decision.new_cost <= decision.old_cost
