"""Parity of the batched widest-path kernels against the reference loop.

The dense max-min closures (repeated squaring, Floyd-Warshall pivoting,
and the divide-and-conquer avoid-one tensor) only ever *select* edge
weights — no floating-point arithmetic touches the bottleneck values —
so every implementation must agree bit for bit with the per-source heap
search on arbitrary graphs.  Hypothesis generates the graphs; equality
is exact, not approximate.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.routing.graph import OverlayGraph
from repro.routing.widest_path import (
    bandwidth_adjacency,
    bottleneck_avoid_one,
    bottleneck_closure,
    bottleneck_closure_fw,
    widest_path_bandwidths_multi,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def overlay_graphs(draw):
    """Random small directed graphs, including zero-weight edges."""
    n = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    out_degree = draw(st.integers(0, min(5, n - 1)))
    graph = OverlayGraph(n)
    for u in range(n):
        if out_degree == 0:
            continue
        targets = rng.choice(
            [v for v in range(n) if v != u], size=out_degree, replace=False
        )
        for v in targets:
            # Occasionally zero-bandwidth links (absent-equivalent).
            weight = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.1, 100.0))
            graph.add_edge(u, int(v), weight)
    return graph


def _reference(graph, sources):
    return widest_path_bandwidths_multi(graph, sources, batched=False)


@given(overlay_graphs())
@SETTINGS
def test_closure_matches_per_source_loop(graph):
    sources = list(range(graph.n))
    reference = _reference(graph, sources)
    batched = widest_path_bandwidths_multi(graph, sources, batched=True)
    assert np.array_equal(batched, reference)


@given(overlay_graphs())
@SETTINGS
def test_all_closure_variants_agree(graph):
    adjacency = bandwidth_adjacency(graph)
    reference = _reference(graph, list(range(graph.n)))
    assert np.array_equal(bottleneck_closure(adjacency), reference)
    assert np.array_equal(bottleneck_closure_fw(adjacency), reference)


@given(overlay_graphs())
@SETTINGS
def test_avoid_one_matches_residual_closures(graph):
    """Slice ``[i]`` (rows != i) equals the closure of ``G`` minus ``i``'s
    out-edges — the residual matrix best-response sweeps consume."""
    adjacency = bandwidth_adjacency(graph)
    tensor = bottleneck_avoid_one(adjacency)
    for i in range(graph.n):
        residual = adjacency.copy()
        residual[i, :] = 0.0
        residual[i, i] = np.inf
        expected = bottleneck_closure(residual)
        rows = [w for w in range(graph.n) if w != i]
        assert np.array_equal(tensor[i][rows], expected[rows])


@given(overlay_graphs(), st.data())
@SETTINGS
def test_source_subsets(graph, data):
    count = data.draw(st.integers(0, graph.n))
    sources = list(
        data.draw(
            st.permutations(list(range(graph.n))).map(lambda p: p[:count])
        )
    )
    reference = _reference(graph, sources)
    batched = widest_path_bandwidths_multi(graph, sources, batched=True)
    assert np.array_equal(batched, reference)
    assert batched.shape == (len(sources), graph.n)
