"""Tests for the OverlayGraph structure."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.routing.graph import OverlayGraph
from repro.util.validation import ValidationError


def ring_graph(n, weight=1.0):
    graph = OverlayGraph(n)
    for i in range(n):
        graph.add_edge(i, (i + 1) % n, weight)
    return graph


class TestMutation:
    def test_add_and_query(self):
        graph = OverlayGraph(3)
        graph.add_edge(0, 1, 5.0)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)
        assert graph.weight(0, 1) == 5.0

    def test_add_overwrites_weight(self):
        graph = OverlayGraph(3)
        graph.add_edge(0, 1, 5.0)
        graph.add_edge(0, 1, 7.0)
        assert graph.weight(0, 1) == 7.0
        assert graph.edge_count() == 1

    def test_self_loop_rejected(self):
        graph = OverlayGraph(3)
        with pytest.raises(ValidationError):
            graph.add_edge(1, 1, 1.0)

    def test_negative_weight_rejected(self):
        graph = OverlayGraph(3)
        with pytest.raises(ValidationError):
            graph.add_edge(0, 1, -1.0)

    def test_out_of_range_rejected(self):
        graph = OverlayGraph(3)
        with pytest.raises(ValidationError):
            graph.add_edge(0, 3, 1.0)

    def test_remove_edge(self):
        graph = ring_graph(4)
        graph.remove_edge(0, 1)
        assert not graph.has_edge(0, 1)
        assert graph.in_degree(1) == 0

class TestQueries:
    def test_degrees(self):
        graph = ring_graph(5)
        assert all(graph.out_degree(i) == 1 for i in range(5))
        assert all(graph.in_degree(i) == 1 for i in range(5))

    def test_edges_iteration(self):
        graph = ring_graph(3, weight=2.0)
        edges = sorted(graph.edges())
        assert edges == [(0, 1, 2.0), (1, 2, 2.0), (2, 0, 2.0)]

    def test_successors_returns_copy(self):
        graph = ring_graph(3)
        succ = graph.successors(0)
        succ[2] = 99.0
        assert not graph.has_edge(0, 2)


class TestDerivation:
    def test_copy_independent(self):
        graph = ring_graph(4)
        clone = graph.copy()
        clone.remove_edge(0, 1)
        assert graph.has_edge(0, 1)

    def test_without_node_out_edges(self):
        graph = ring_graph(4)
        residual = graph.without_node_out_edges(0)
        assert residual.out_degree(0) == 0
        assert residual.in_degree(0) == 1  # 3 -> 0 stays

    def test_restricted(self):
        graph = ring_graph(5)
        sub = graph.restricted([0, 1, 2])
        assert sub.has_edge(0, 1)
        assert sub.has_edge(1, 2)
        assert not sub.has_edge(2, 3)

    def test_adjacency_matrix(self):
        graph = ring_graph(3, weight=4.0)
        mat = graph.to_adjacency_matrix()
        assert mat[0, 1] == 4.0
        assert np.isinf(mat[0, 2])
        assert np.all(np.diag(mat) == 0)

    def test_networkx_round_trip(self):
        graph = ring_graph(4, weight=3.0)
        nxg = graph.to_networkx()
        assert sorted(nxg.nodes) == list(range(4))
        back = [(u, v, data["weight"]) for u, v, data in nxg.edges(data=True)]
        assert sorted(back) == sorted(graph.edges())

class TestConnectivity:
    def test_ring_strongly_connected(self):
        assert ring_graph(6).is_strongly_connected()

    def test_broken_ring_not_strongly_connected(self):
        graph = ring_graph(6)
        graph.remove_edge(2, 3)
        assert not graph.is_strongly_connected()

    def test_reachable_from(self):
        graph = OverlayGraph(4)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 1.0)
        assert graph.reachable_from(0) == {0, 1, 2}

    def test_subset_connectivity(self):
        graph = OverlayGraph(5)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 0, 1.0)
        assert graph.is_strongly_connected(nodes=[0, 1])
        assert not graph.is_strongly_connected(nodes=[0, 1, 2])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 12))
    def test_ring_property(self, n):
        graph = ring_graph(n)
        assert graph.edge_count() == n
        assert graph.is_strongly_connected()
