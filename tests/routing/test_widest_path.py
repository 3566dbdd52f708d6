"""Tests for maximum-bottleneck-bandwidth routing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.routing.graph import OverlayGraph
from repro.routing.widest_path import (
    all_pairs_widest_bandwidth,
    widest_path_bandwidths_multi,
    path_bottleneck,
    widest_path,
    widest_path_bandwidths_from,
)


def diamond_graph():
    """0 -> {1, 2} -> 3 with different bottlenecks on each branch."""
    graph = OverlayGraph(4)
    graph.add_edge(0, 1, 10.0)
    graph.add_edge(1, 3, 2.0)
    graph.add_edge(0, 2, 5.0)
    graph.add_edge(2, 3, 5.0)
    return graph


class TestWidestPath:
    def test_diamond_prefers_wider_branch(self):
        graph = diamond_graph()
        bw = widest_path_bandwidths_from(graph, 0)
        assert bw[3] == pytest.approx(5.0)
        assert widest_path(graph, 0, 3) == [0, 2, 3]

    def test_source_infinite(self):
        bw = widest_path_bandwidths_from(diamond_graph(), 0)
        assert np.isinf(bw[0])

    def test_unreachable_zero(self):
        graph = OverlayGraph(3)
        graph.add_edge(0, 1, 5.0)
        bw = widest_path_bandwidths_from(graph, 1)
        assert bw[0] == 0.0
        assert widest_path(graph, 1, 0) is None

    def test_single_edge(self):
        graph = OverlayGraph(2)
        graph.add_edge(0, 1, 3.0)
        assert widest_path_bandwidths_from(graph, 0)[1] == 3.0

    def test_bottleneck_never_exceeds_any_incident_capacity(self):
        rng = np.random.default_rng(0)
        graph = OverlayGraph(10)
        for i in range(10):
            for j in rng.choice([x for x in range(10) if x != i], size=3, replace=False):
                graph.add_edge(i, int(j), float(rng.uniform(1, 100)))
        bw = all_pairs_widest_bandwidth(graph)
        for j in range(10):
            incoming = [w for _u, v, w in graph.edges() if v == j]
            if incoming:
                assert np.all(bw[[i for i in range(10) if i != j], j] <= max(incoming) + 1e-9)

    def test_path_bottleneck_matches(self):
        graph = diamond_graph()
        path = widest_path(graph, 0, 3)
        assert path_bottleneck(graph, path) == pytest.approx(5.0)

    def test_all_pairs_diagonal_infinite(self):
        bw = all_pairs_widest_bandwidth(diamond_graph())
        assert np.all(np.isinf(np.diag(bw)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(4, 10))
    def test_adding_edges_never_reduces_bandwidth(self, n):
        rng = np.random.default_rng(n)
        graph = OverlayGraph(n)
        for i in range(n):
            graph.add_edge(i, (i + 1) % n, float(rng.uniform(1, 50)))
        before = all_pairs_widest_bandwidth(graph)
        richer = graph.copy()
        for i in range(n):
            j = int(rng.integers(0, n))
            if i != j and not richer.has_edge(i, j):
                richer.add_edge(i, j, float(rng.uniform(1, 50)))
        after = all_pairs_widest_bandwidth(richer)
        assert np.all(after >= before - 1e-9)

    def test_widest_value_is_maximin(self):
        """Widest path value equals the max over paths of the min edge."""
        graph = diamond_graph()
        # Enumerate the two paths explicitly.
        via1 = min(10.0, 2.0)
        via2 = min(5.0, 5.0)
        assert widest_path_bandwidths_from(graph, 0)[3] == max(via1, via2)

