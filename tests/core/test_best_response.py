"""Tests for best-response computation (exact, local search, BR(eps))."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.best_response import (
    WiringEvaluator,
    best_response,
    best_response_exact,
    best_response_local_search,
    should_rewire,
)
from repro.core.cost import BandwidthMetric, DelayMetric
from repro.netsim.bandwidth import BandwidthModel
from repro.netsim.planetlab import synthetic_planetlab
from repro.routing.graph import OverlayGraph
from repro.util.validation import ValidationError
from tests.reference.scalar_best_response import value_for_destination


def ring_residual(metric, exclude):
    """A ring among all nodes except ``exclude`` (its residual graph)."""
    n = metric.size
    others = [i for i in range(n) if i != exclude]
    graph = OverlayGraph(n)
    for idx, node in enumerate(others):
        nxt = others[(idx + 1) % len(others)]
        graph.add_edge(node, nxt, metric.link_weight(node, nxt))
    return graph


class TestWiringEvaluator:
    def test_empty_wiring_is_fully_disconnected(self, small_delay_metric):
        residual = ring_residual(small_delay_metric, 0)
        evaluator = WiringEvaluator(0, small_delay_metric, residual)
        assert evaluator.evaluate(()) == pytest.approx(
            small_delay_metric.unreachable_value
        )

    def test_single_neighbor_value(self, small_delay_metric):
        residual = ring_residual(small_delay_metric, 0)
        evaluator = WiringEvaluator(0, small_delay_metric, residual)
        # Wiring only to node 1: cost to 1 is the direct delay.
        assert value_for_destination(evaluator, {1}, 1) == pytest.approx(
            small_delay_metric.link_weight(0, 1)
        )

    def test_value_uses_min_over_hops(self, small_delay_metric):
        residual = ring_residual(small_delay_metric, 0)
        evaluator = WiringEvaluator(0, small_delay_metric, residual)
        via1 = value_for_destination(evaluator, {1}, 3)
        via3 = value_for_destination(evaluator, {3}, 3)
        both = value_for_destination(evaluator, {1, 3}, 3)
        assert both == pytest.approx(min(via1, via3))

    def test_evaluate_matches_graph_cost(self, small_delay_metric):
        """Evaluator shortcut equals evaluating the full assembled graph."""
        residual = ring_residual(small_delay_metric, 0)
        evaluator = WiringEvaluator(0, small_delay_metric, residual)
        wiring = {1, 4}
        fast = evaluator.evaluate(wiring)
        full = residual.copy()
        for v in wiring:
            full.add_edge(0, v, small_delay_metric.link_weight(0, v))
        slow = small_delay_metric.node_cost(0, full)
        assert fast == pytest.approx(slow)

    def test_required_links_always_included(self, small_delay_metric):
        residual = ring_residual(small_delay_metric, 0)
        evaluator = WiringEvaluator(
            0, small_delay_metric, residual, required=frozenset({4})
        )
        with_req = evaluator.evaluate({1})
        explicit = WiringEvaluator(0, small_delay_metric, residual).evaluate({1, 4})
        assert with_req == pytest.approx(explicit)

    def test_disallowed_neighbor_rejected(self, small_delay_metric):
        residual = ring_residual(small_delay_metric, 0)
        evaluator = WiringEvaluator(
            0, small_delay_metric, residual, candidates=[1, 2]
        )
        with pytest.raises(ValidationError):
            evaluator.evaluate({3})

    def test_bandwidth_evaluator_maximin(self, bandwidth_metric_small):
        residual = ring_residual(bandwidth_metric_small, 0)
        evaluator = WiringEvaluator(0, bandwidth_metric_small, residual)
        value = value_for_destination(evaluator, {1}, 1)
        assert value == pytest.approx(bandwidth_metric_small.link_weight(0, 1))


class TestExactBestResponse:
    def test_k1_picks_best_single_hub(self, small_delay_metric):
        residual = ring_residual(small_delay_metric, 0)
        evaluator = WiringEvaluator(0, small_delay_metric, residual)
        result = best_response_exact(evaluator, 1)
        # Check optimality by brute force.
        best = min(
            (evaluator.evaluate({c}), c) for c in evaluator.candidates
        )
        assert result.cost == pytest.approx(best[0])
        assert result.neighbors == frozenset({best[1]})

    def test_exact_is_optimal_for_k2(self, planetlab20_metric):
        metric = planetlab20_metric
        # Use a 8-node restriction to keep enumeration cheap.
        sub = DelayMetric(metric.link_weight_matrix()[:8, :8])
        residual = ring_residual(sub, 0)
        evaluator = WiringEvaluator(0, sub, residual)
        result = best_response_exact(evaluator, 2)
        import itertools

        brute = min(
            evaluator.evaluate(set(combo))
            for combo in itertools.combinations(evaluator.candidates, 2)
        )
        assert result.cost == pytest.approx(brute)

    def test_k_larger_than_candidates(self, small_delay_metric):
        residual = ring_residual(small_delay_metric, 0)
        evaluator = WiringEvaluator(0, small_delay_metric, residual)
        result = best_response_exact(evaluator, 10)
        assert result.neighbors == frozenset({1, 2, 3, 4})


class TestLocalSearch:
    def test_matches_exact_on_small_instance(self, small_delay_metric):
        residual = ring_residual(small_delay_metric, 0)
        evaluator = WiringEvaluator(0, small_delay_metric, residual)
        exact = best_response_exact(evaluator, 2)
        approx = best_response_local_search(evaluator, 2)
        assert approx.cost == pytest.approx(exact.cost, rel=0.05)

    def test_close_to_exact_on_larger_instance(self, planetlab20_metric):
        metric = planetlab20_metric
        residual = ring_residual(metric, 0)
        evaluator = WiringEvaluator(0, metric, residual)
        exact = best_response_exact(evaluator, 2)
        approx = best_response_local_search(evaluator, 2)
        # The paper reports local search within ~5% of optimal.
        assert approx.cost <= exact.cost * 1.05 + 1e-9

    def test_respects_k(self, planetlab20_metric):
        residual = ring_residual(planetlab20_metric, 0)
        evaluator = WiringEvaluator(0, planetlab20_metric, residual)
        result = best_response_local_search(evaluator, 4)
        assert len(result.neighbors) == 4

    def test_improves_over_random_seed(self, planetlab20_metric):
        residual = ring_residual(planetlab20_metric, 0)
        evaluator = WiringEvaluator(0, planetlab20_metric, residual)
        rng = np.random.default_rng(5)
        random_set = list(rng.choice(evaluator.candidates, size=3, replace=False))
        random_cost = evaluator.evaluate(random_set)
        result = best_response_local_search(evaluator, 3)
        assert result.cost <= random_cost + 1e-9

    def test_bandwidth_objective_maximized(self, bandwidth_metric_small):
        residual = ring_residual(bandwidth_metric_small, 0)
        evaluator = WiringEvaluator(0, bandwidth_metric_small, residual)
        exact = best_response_exact(evaluator, 2)
        approx = best_response_local_search(evaluator, 2)
        assert approx.cost >= exact.cost * 0.95

    def test_local_search_optimality_gap(self):
        """Ablation: the paper replaces the NP-hard exact best response by
        local search and reports it within ~5% of optimal.  Measure that
        gap on ten n=14, k=3 instances small enough to enumerate, for the
        delay and bandwidth objectives."""
        rng = np.random.default_rng(2008)
        delay_gaps, bw_gaps = [], []
        for _trial in range(10):
            space, _nodes = synthetic_planetlab(14, seed=rng)
            delay_metric = DelayMetric(space.matrix)
            evaluator = WiringEvaluator(0, delay_metric, ring_residual(delay_metric, 0))
            exact = best_response_exact(evaluator, 3)
            approx = best_response_local_search(evaluator, 3)
            delay_gaps.append(approx.cost / exact.cost - 1.0)

            bw_metric = BandwidthMetric(BandwidthModel(14, seed=rng).matrix())
            bw_eval = WiringEvaluator(0, bw_metric, ring_residual(bw_metric, 0))
            bw_exact = best_response_exact(bw_eval, 3)
            bw_approx = best_response_local_search(bw_eval, 3)
            bw_gaps.append(1.0 - bw_approx.cost / bw_exact.cost)
        delay_gaps, bw_gaps = np.array(delay_gaps), np.array(bw_gaps)
        # Local search never beats the exact optimum ...
        assert np.all(delay_gaps >= -1e-9)
        assert np.all(bw_gaps >= -1e-9)
        # ... and stays within the paper's ~5% on average (a looser worst
        # case on these random instances).
        assert delay_gaps.mean() <= 0.05
        assert bw_gaps.mean() <= 0.05
        assert delay_gaps.max() <= 0.15
        assert bw_gaps.max() <= 0.15


class TestDispatcherAndEpsilon:
    def test_dispatcher_uses_exact_for_small(self, small_delay_metric):
        residual = ring_residual(small_delay_metric, 0)
        evaluator = WiringEvaluator(0, small_delay_metric, residual)
        result = best_response(evaluator, 2)
        assert result.method == "exact"

    def test_dispatcher_uses_local_search_for_large(self, planetlab20_metric):
        residual = ring_residual(planetlab20_metric, 0)
        evaluator = WiringEvaluator(0, planetlab20_metric, residual)
        result = best_response(evaluator, 3)
        assert result.method == "local-search"

    def test_should_rewire_epsilon(self, small_delay_metric):
        assert should_rewire(small_delay_metric, 100.0, 80.0, epsilon=0.1)
        assert not should_rewire(small_delay_metric, 100.0, 95.0, epsilon=0.1)
        assert not should_rewire(small_delay_metric, 100.0, 120.0, epsilon=0.0)

    def test_should_rewire_requires_strict_improvement(self, small_delay_metric):
        assert not should_rewire(small_delay_metric, 100.0, 100.0)

    def test_should_rewire_negative_epsilon_rejected(self, small_delay_metric):
        with pytest.raises(ValidationError):
            should_rewire(small_delay_metric, 100.0, 80.0, epsilon=-0.1)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 4))
    def test_best_response_cost_monotone_in_k(self, k):
        """A larger neighbour budget can never yield a worse best response."""
        rng = np.random.default_rng(k)
        delays = rng.uniform(1, 50, size=(10, 10))
        np.fill_diagonal(delays, 0)
        metric = DelayMetric(delays)
        residual = ring_residual(metric, 0)
        evaluator = WiringEvaluator(0, metric, residual)
        small = best_response(evaluator, k)
        large = best_response(evaluator, k + 1)
        assert large.cost <= small.cost + 1e-9
