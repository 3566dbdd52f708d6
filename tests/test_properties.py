"""Cross-cutting property-based tests on core invariants.

These use hypothesis to generate small random overlays and metric
instances and check the game-level invariants the paper's correctness
relies on: best responses never hurt, richer wirings never hurt, the
efficiency metric is bounded, and the connectivity-enforcement helpers
always deliver strong connectivity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.best_response import WiringEvaluator, best_response
from repro.core.cost import DelayMetric, uniform_preferences
from repro.core.policies import (
    KClosestPolicy,
    KRandomPolicy,
    build_overlay,
    enforce_connectivity_cycle,
)
from repro.core.wiring import GlobalWiring, Wiring
from repro.churn.metrics import efficiency_matrix, overlay_efficiency
from repro.routing.graph import OverlayGraph
from repro.routing.shortest_path import all_pairs_shortest_costs

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def delay_metrics(draw):
    """Random small symmetric delay metrics (4-10 nodes)."""
    n = draw(st.integers(4, 10))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    delays = rng.uniform(1.0, 100.0, size=(n, n))
    delays = (delays + delays.T) / 2.0
    np.fill_diagonal(delays, 0.0)
    return DelayMetric(delays)


@st.composite
def metric_and_ring(draw):
    """A metric plus the ring residual graph excluding node 0."""
    metric = draw(delay_metrics())
    n = metric.size
    graph = OverlayGraph(n)
    others = list(range(1, n))
    for idx, node in enumerate(others):
        nxt = others[(idx + 1) % len(others)]
        graph.add_edge(node, nxt, metric.link_weight(node, nxt))
    return metric, graph


class TestBestResponseInvariants:
    @SETTINGS
    @given(metric_and_ring(), st.integers(1, 3))
    def test_best_response_never_worse_than_any_single_candidate(self, setup, k):
        metric, residual = setup
        evaluator = WiringEvaluator(0, metric, residual)
        result = best_response(evaluator, k)
        for candidate in evaluator.candidates[:5]:
            assert result.cost <= evaluator.evaluate({candidate}) + 1e-9

    @SETTINGS
    @given(metric_and_ring())
    def test_superset_wiring_never_hurts(self, setup):
        metric, residual = setup
        evaluator = WiringEvaluator(0, metric, residual)
        candidates = evaluator.candidates
        small = set(candidates[:1])
        large = set(candidates[:3])
        assert evaluator.evaluate(large) <= evaluator.evaluate(small) + 1e-9

    @SETTINGS
    @given(metric_and_ring(), st.integers(1, 3))
    def test_best_response_degree_at_most_k(self, setup, k):
        metric, residual = setup
        evaluator = WiringEvaluator(0, metric, residual)
        result = best_response(evaluator, k)
        assert len(result.neighbors) <= k

    @SETTINGS
    @given(metric_and_ring())
    def test_evaluator_agrees_with_full_graph_cost(self, setup):
        metric, residual = setup
        evaluator = WiringEvaluator(0, metric, residual)
        chosen = set(evaluator.candidates[:2])
        fast = evaluator.evaluate(chosen)
        full = residual.copy()
        for v in chosen:
            full.add_edge(0, v, metric.link_weight(0, v))
        assert fast == pytest.approx(metric.node_cost(0, full), rel=1e-9)


class TestOverlayInvariants:
    @SETTINGS
    @given(delay_metrics(), st.integers(1, 3), st.integers(0, 1000))
    def test_built_overlays_strongly_connected(self, metric, k, seed):
        policy = KRandomPolicy() if seed % 2 == 0 else KClosestPolicy()
        wiring = build_overlay(policy, metric, k, rng=seed)
        assert wiring.to_graph().is_strongly_connected()

    @SETTINGS
    @given(delay_metrics(), st.integers(0, 500))
    def test_connectivity_cycle_idempotent(self, metric, seed):
        wiring = build_overlay(KRandomPolicy(), metric, 1, rng=seed)
        first = enforce_connectivity_cycle(wiring, metric)
        second = enforce_connectivity_cycle(wiring, metric)
        assert second == 0
        assert wiring.to_graph().is_strongly_connected()

    @SETTINGS
    @given(delay_metrics(), st.integers(1, 3), st.integers(0, 500))
    def test_social_cost_equals_sum_of_node_costs(self, metric, k, seed):
        wiring = build_overlay(KRandomPolicy(), metric, k, rng=seed)
        graph = wiring.to_graph()
        social = metric.social_cost(graph)
        summed = sum(metric.all_node_costs(graph).values())
        assert social == pytest.approx(summed)


class TestEfficiencyInvariants:
    @SETTINGS
    @given(delay_metrics(), st.integers(1, 3), st.integers(0, 500))
    def test_efficiency_bounded(self, metric, k, seed):
        wiring = build_overlay(KRandomPolicy(), metric, k, rng=seed)
        graph = wiring.to_graph()
        eff = overlay_efficiency(graph)
        assert 0.0 <= eff
        # Delays are >= 1 ms in these instances, so efficiency <= 1.
        assert eff <= 1.0 + 1e-9

    @SETTINGS
    @given(delay_metrics(), st.integers(0, 500))
    def test_removing_a_node_never_raises_survivor_efficiency(self, metric, seed):
        """Churn can only hurt each surviving node's own efficiency.

        (The overlay *mean* can rise when a poorly-connected node leaves the
        averaging set, so the invariant is per-node, not aggregate.)
        """
        wiring = build_overlay(KRandomPolicy(), metric, 2, rng=seed)
        graph = wiring.to_graph()
        survivors = list(range(metric.size - 1))
        full = efficiency_matrix(graph).sum(axis=1)
        reduced = efficiency_matrix(graph, active=survivors).sum(axis=1)
        for node in survivors[:4]:
            assert reduced[node] <= full[node] + 1e-9

    @SETTINGS
    @given(delay_metrics(), st.integers(0, 500))
    def test_node_efficiency_zero_when_isolated(self, metric, seed):
        graph = OverlayGraph(metric.size)
        assert efficiency_matrix(graph)[0].sum() == 0.0


class TestRoutingInvariants:
    @SETTINGS
    @given(delay_metrics(), st.integers(1, 3), st.integers(0, 500))
    def test_shortest_paths_respect_direct_link_upper_bound(self, metric, k, seed):
        wiring = build_overlay(KClosestPolicy(), metric, k, rng=seed)
        graph = wiring.to_graph()
        costs = all_pairs_shortest_costs(graph)
        for u, v, w in graph.edges():
            assert costs[u, v] <= w + 1e-9
