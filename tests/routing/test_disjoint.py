"""Tests for disjoint-path computation."""

import pytest

from repro.routing.disjoint import count_disjoint_paths, disjoint_paths
from repro.routing.graph import OverlayGraph
from repro.util.validation import ValidationError


def parallel_paths_graph():
    """Three internally disjoint 0 -> 4 paths through 1, 2, 3."""
    graph = OverlayGraph(5)
    for mid in (1, 2, 3):
        graph.add_edge(0, mid, 1.0)
        graph.add_edge(mid, 4, 1.0)
    return graph


class TestCounting:
    def test_parallel_paths_counted(self):
        assert count_disjoint_paths(parallel_paths_graph(), 0, 4) == 3

    def test_vertex_disjoint_shared_midpoint(self):
        graph = OverlayGraph(4)
        # Two edge-disjoint paths both pass through node 1.
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 3, 1.0)
        graph.add_edge(0, 2, 1.0)
        graph.add_edge(2, 1, 1.0)
        graph.add_edge(1, 3, 1.0)
        assert count_disjoint_paths(graph, 0, 3, vertex_disjoint=True) == 1

    def test_no_path(self):
        graph = OverlayGraph(3)
        graph.add_edge(0, 1, 1.0)
        assert count_disjoint_paths(graph, 0, 2) == 0

    def test_max_paths_cap(self):
        assert count_disjoint_paths(parallel_paths_graph(), 0, 4, max_paths=2) == 2

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            count_disjoint_paths(parallel_paths_graph(), 0, 0)

    def test_direct_edge_counts(self):
        graph = OverlayGraph(2)
        graph.add_edge(0, 1, 1.0)
        assert count_disjoint_paths(graph, 0, 1) == 1


class TestExtraction:
    def test_paths_are_valid_and_disjoint(self):
        graph = parallel_paths_graph()
        paths = disjoint_paths(graph, 0, 4)
        assert len(paths) == 3
        used_edges = set()
        for path in paths:
            assert path[0] == 0 and path[-1] == 4
            for u, v in zip(path[:-1], path[1:]):
                assert graph.has_edge(u, v)
                assert (u, v) not in used_edges
                used_edges.add((u, v))

    def test_vertex_disjoint_extraction(self):
        graph = parallel_paths_graph()
        paths = disjoint_paths(graph, 0, 4, vertex_disjoint=True)
        middles = [p[1] for p in paths]
        assert len(middles) == len(set(middles)) == 3

    def test_empty_when_unreachable(self):
        graph = OverlayGraph(3)
        graph.add_edge(1, 2, 1.0)
        assert disjoint_paths(graph, 0, 2) == []

