"""Tests for churn-rate and efficiency metrics."""

import numpy as np
import pytest

from repro.churn.metrics import (
    churn_rate,
    efficiency_matrix,
    expected_healing_time,
    overlay_efficiency,
)
from repro.routing.graph import OverlayGraph
from repro.util.validation import ValidationError


def ring(n, weight=2.0):
    graph = OverlayGraph(n)
    for i in range(n):
        graph.add_edge(i, (i + 1) % n, weight)
    return graph


class TestEfficiency:
    def test_direct_link_efficiency(self):
        graph = OverlayGraph(3)
        graph.add_edge(0, 1, 4.0)
        eff = efficiency_matrix(graph)
        assert eff[0, 1] == pytest.approx(0.25)
        assert eff[1, 0] == 0.0
        assert eff[0, 2] == 0.0

    def test_disconnected_pairs_zero(self):
        graph = OverlayGraph(4)
        graph.add_edge(0, 1, 1.0)
        assert efficiency_matrix(graph)[2].sum() == 0.0

    def test_node_efficiency_normalised_by_population(self):
        graph = ring(4, weight=1.0)
        # Every node reaches the other three at distances 1, 2, 3.
        expected = (1.0 + 0.5 + 1.0 / 3.0) / 3.0
        assert overlay_efficiency(graph) == pytest.approx(expected)

    def test_overlay_efficiency_mean_over_active(self):
        graph = ring(4, weight=1.0)
        assert overlay_efficiency(graph) == pytest.approx(efficiency_matrix(graph)[0].sum() / 3)

    def test_active_restriction_drops_off_nodes(self):
        graph = ring(4, weight=1.0)
        eff_all = overlay_efficiency(graph)
        eff_some = overlay_efficiency(graph, active=[0, 1])
        # OFF nodes take their links away, so efficiency can only drop.
        assert eff_some <= eff_all

    def test_shorter_paths_higher_efficiency(self):
        fast = ring(5, weight=1.0)
        slow = ring(5, weight=10.0)
        assert overlay_efficiency(fast) > overlay_efficiency(slow)

    def test_empty_active_zero(self):
        assert overlay_efficiency(ring(4), active=[]) == 0.0


class TestChurnRate:
    def test_single_change(self):
        memberships = [{0, 1, 2, 3}, {0, 1, 2}]
        # One event flipping 1 of 4 nodes over a 10-second horizon.
        assert churn_rate(memberships, 10.0) == pytest.approx(0.025)

    def test_no_events(self):
        assert churn_rate([{0, 1}], 10.0) == 0.0

    def test_complete_turnover(self):
        memberships = [{0, 1}, {2, 3}]
        assert churn_rate(memberships, 1.0) == pytest.approx(2.0)

    def test_zero_horizon_rejected(self):
        with pytest.raises(Exception):
            churn_rate([{0}, {1}], 0.0)

    def test_empty_sets_handled(self):
        assert churn_rate([set(), set()], 5.0) == 0.0


class TestHealingTime:
    def test_paper_settings(self):
        # T = 60 s, n = 50 -> healing every 1.2 s on average.
        assert expected_healing_time(60.0, 50) == pytest.approx(1.2)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            expected_healing_time(60.0, 0)
