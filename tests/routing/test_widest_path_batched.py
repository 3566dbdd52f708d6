"""Parity of the batched widest-path kernels against the reference loop.

The dense max-min closures (repeated squaring and Floyd-Warshall
pivoting, one graph or a stack at a time) only ever *select* edge
weights — no floating-point arithmetic touches the bottleneck values —
so every implementation must agree bit for bit with the per-source heap
search on arbitrary graphs.  Hypothesis generates the graphs; equality
is exact, not approximate.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import lockstep
from repro.routing.graph import OverlayGraph
from repro.routing.widest_path import (
    bandwidth_adjacency,
    bottleneck_closure,
    bottleneck_closure_fw,
    widest_path_bandwidths_multi,
)

#: The module (``repro.routing`` re-exports a function of the same name).
widest_path = importlib.import_module("repro.routing.widest_path")

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


@st.composite
def adjacency_stacks(draw):
    """Stacks of bottleneck adjacencies of one size: absent (0) and
    zero-bandwidth links, ``+inf`` links, ``+inf`` diagonals."""
    n = draw(st.integers(1, 12))
    members = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    stack = rng.uniform(0.1, 100.0, size=(members, n, n))
    stack[rng.random(stack.shape) < 0.5] = 0.0
    stack[rng.random(stack.shape) < 0.05] = np.inf
    idx = np.arange(n)
    stack[:, idx, idx] = np.inf
    return stack


@given(adjacency_stacks())
@SETTINGS
def test_stacked_closures_equal_per_matrix_closures(stack):
    """Pivoting a stack together is bitwise each member's own closure,
    in one chunk or in many."""
    expected = np.stack([bottleneck_closure_fw(member) for member in stack])
    assert np.array_equal(bottleneck_closure_fw(stack), expected)
    for member, closure in zip(stack, expected):
        assert np.array_equal(bottleneck_closure(member), closure)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(widest_path, "_FW_STACK_CELLS", 1)  # one member per chunk
        assert np.array_equal(bottleneck_closure_fw(stack), expected)


@given(adjacency_stacks(), st.data())
@SETTINGS
def test_stacked_residual_sweep_equals_per_node_closure(stack, data):
    """A lockstep round's bandwidth residuals — each overlay with one
    node's row cleared, swept as one stack — are bitwise each residual
    graph's own closure, and so is the per-source search past the
    closure cutoff."""
    members, n, _ = stack.shape
    nodes = data.draw(st.lists(st.integers(0, n - 1), min_size=members, max_size=members))
    residuals = np.where(stack == 0.0, np.nan, stack)
    residuals[np.arange(members), nodes, :] = np.nan
    swept = lockstep.batched_route_matrices(residuals, maximize=True)
    for member, node, matrix in zip(stack, nodes, swept):
        residual = member.copy()
        residual[node, :] = 0.0
        residual[node, node] = np.inf
        assert np.array_equal(matrix, bottleneck_closure(residual))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lockstep, "CLOSURE_MAX_NODES", n - 1)
        assert np.array_equal(lockstep.batched_route_matrices(residuals, maximize=True), swept)
