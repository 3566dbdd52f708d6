"""Maximum-bottleneck-bandwidth ("widest path") routing.

For the available-bandwidth metric the paper defines the bandwidth of a
path as the minimum available bandwidth over its edges, and the bandwidth
between two nodes as the maximum over all connecting paths — the classic
"Maximum Bottleneck Bandwidth" problem solved with a simple modification of
Dijkstra's algorithm (Section 4.1).

Two implementations coexist, mirroring the additive metrics:

* a heap-based per-source search (:func:`widest_path_bandwidths_from`),
  used for single-source queries, path extraction, and graphs past
  ``CLOSURE_MAX_NODES``;
* batched dense max-min closures under the ``(max, min)`` semiring.
  Bottleneck values are pure selections of edge weights — no
  floating-point arithmetic is performed on them — so every closure
  algorithm is *bitwise identical* to the per-source search while
  replacing ``O(sources)`` interpreted Dijkstra runs with a handful of
  NumPy broadcasts.  :func:`bottleneck_closure` is the definitional
  repeated-squaring form (kept as the independent cross-check the
  parity tests pin the others against); :func:`bottleneck_closure_fw`
  (Floyd-Warshall pivoting) is the fast single-graph form; and
  :func:`bottleneck_avoid_one` closes the residual graphs of *every*
  node of one overlay at once, which is what the lockstep bandwidth
  fill in :mod:`repro.core.lockstep` builds on.

:func:`widest_path_bandwidths_multi` picks between the two from the
source count and graph size alone; its ``batched=`` argument forces one
side, which is how ``tests/routing/test_widest_path_batched.py`` holds
them bitwise equal.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from repro.routing.graph import OverlayGraph
from repro.telemetry import runtime as telemetry
from repro.util.validation import check_index

#: Above this node count the dense closure's O(n^3) squarings stop paying
#: for themselves against the heap search; auto mode falls back to the
#: per-source loop.
CLOSURE_MAX_NODES = 256

#: Minimum source count for which the closure (which always computes every
#: row) beats per-source heap runs in auto mode.
_CLOSURE_MIN_SOURCES = 8

#: Soft cap on temporary cells per closure squaring chunk (~64 MB float64).
_CLOSURE_CHUNK_CELLS = 8_000_000

def widest_path_bandwidths_from(graph: OverlayGraph, src: int) -> np.ndarray:
    """Maximum bottleneck bandwidth from ``src`` to every node.

    Edge weights are interpreted as available bandwidth (Mbps).  The source
    itself gets ``+inf``; unreachable nodes get 0.
    """
    check_index(src, graph.n, "src")
    best = np.zeros(graph.n)
    best[src] = np.inf
    # Max-heap via negated bottleneck values.
    heap: List[Tuple[float, int]] = [(-np.inf, src)]
    visited = np.zeros(graph.n, dtype=bool)
    while heap:
        neg_bw, u = heapq.heappop(heap)
        if visited[u]:
            continue
        visited[u] = True
        bw_u = -neg_bw
        for v, w in graph.successors(u).items():
            candidate = min(bw_u, w)
            if candidate > best[v]:
                best[v] = candidate
                heapq.heappush(heap, (-candidate, v))
    return best


def bandwidth_adjacency(graph: OverlayGraph) -> np.ndarray:
    """Dense bottleneck-adjacency matrix of ``graph``.

    Absent edges are 0 (unreachable in one hop — the identity of the
    ``max`` reduction) and the diagonal is ``+inf`` (a node reaches itself
    with unbounded bandwidth — the identity of the ``min`` reduction), so
    the matrix is ready for :func:`bottleneck_closure`.
    """
    adjacency = np.zeros((graph.n, graph.n))
    for u, v, w in graph.edges():
        adjacency[u, v] = w
    np.fill_diagonal(adjacency, np.inf)
    return adjacency


def bottleneck_closure(adjacency: np.ndarray) -> np.ndarray:
    """Max-min transitive closure of a dense bottleneck-adjacency matrix.

    ``adjacency`` must have 0 for absent edges and ``+inf`` on the
    diagonal (see :func:`bandwidth_adjacency`).  The result's ``[i, j]``
    entry is the maximum over all ``i -> j`` paths of the minimum edge
    weight along the path — exactly what the per-source Dijkstra variant
    computes, bit for bit, since both only ever *select* edge weights.

    Repeated squaring under the ``(max, min)`` semiring doubles the
    covered path length per pass (the ``+inf`` diagonal acts as the
    multiplicative identity, letting shorter paths survive), so the loop
    terminates after ``O(log diameter)`` passes.
    """
    closure = np.asarray(adjacency, dtype=float)
    n = closure.shape[0]
    if n <= 1:
        return closure.copy()
    rows_per_chunk = max(1, _CLOSURE_CHUNK_CELLS // (n * n))
    for _ in range(max(1, int(np.ceil(np.log2(n))))):
        squared = np.empty_like(closure)
        for start in range(0, n, rows_per_chunk):
            stop = min(start + rows_per_chunk, n)
            # squared[i, j] = max_m min(closure[i, m], closure[m, j])
            squared[start:stop] = np.minimum(
                closure[start:stop, :, None], closure[None, :, :]
            ).max(axis=1)
        if np.array_equal(squared, closure):
            return closure
        closure = squared
    return closure


def _apply_bottleneck_pivot(matrix: np.ndarray, pivot: int) -> None:
    """One Floyd-Warshall pivot under the ``(max, min)`` semiring.

    After the update, ``matrix[i, j]`` also covers paths routing through
    ``pivot``.  Valid in any application order (idempotent semiring), and
    — since bottleneck values are pure selections of edge weights — the
    result is bitwise identical to any other exact algorithm's.
    """
    cross = np.minimum(matrix[:, pivot][:, None], matrix[pivot, :][None, :])
    np.maximum(matrix, cross, out=matrix)


def bottleneck_closure_fw(adjacency: np.ndarray) -> np.ndarray:
    """Max-min closure via Floyd-Warshall pivoting.

    Same contract and bitwise-identical result as
    :func:`bottleneck_closure`; ``n`` rank-1 pivot broadcasts
    (``O(n^3)`` with tiny constants) instead of ``O(log diameter)``
    full matrix squarings, which wins for the small dense matrices the
    sweep kernels close per re-wiring opportunity.
    """
    closure = np.array(adjacency, dtype=float, copy=True)
    telemetry.kernel_call("widest.closure_fw", closure.shape[0])
    for pivot in range(closure.shape[0]):
        _apply_bottleneck_pivot(closure, pivot)
    return closure


def bottleneck_avoid_one(adjacency: np.ndarray) -> np.ndarray:
    """Max-min closures avoiding each vertex as an intermediate, at once.

    Returns a ``(n, n, n)`` tensor whose slice ``[i]`` equals the
    closure of the graph in which ``i`` may start or end a path but
    never relay one.  For row ``w != i`` this is exactly the closure of
    the *residual* graph without ``i``'s outgoing links — a path from
    ``w`` that uses an out-edge of ``i`` must first enter ``i``, making
    ``i`` an intermediate — which is what a best-response sweep needs
    for every re-wiring node of an unchanged overlay.  (Slice ``[i]``'s
    own row ``i`` does allow ``i``'s out-edges; residual consumers must
    take only rows ``w != i``.)

    Divide-and-conquer over the pivot set: each half is applied to a
    copy before recursing into the other half, so every leaf has seen
    every pivot except its own vertex.  Total work is ``O(n^2 * n log
    n)`` — asymptotically ``log n / n`` of closing the ``n`` residual
    graphs one by one — and, being pure max-min selections, each slice
    is bitwise identical to the per-residual closure.
    """
    base = np.array(adjacency, dtype=float, copy=True)
    n = base.shape[0]
    out = np.empty((n, n, n))
    if n == 0:
        return out
    telemetry.kernel_call("widest.avoid_one", n)

    def recurse(pivots: List[int], matrix: np.ndarray) -> None:
        if len(pivots) == 1:
            out[pivots[0]] = matrix
            return
        half = len(pivots) // 2
        left, right = pivots[:half], pivots[half:]
        branch = matrix.copy()
        for pivot in right:
            _apply_bottleneck_pivot(branch, pivot)
        recurse(left, branch)
        for pivot in left:
            _apply_bottleneck_pivot(matrix, pivot)
        recurse(right, matrix)

    recurse(list(range(n)), base)
    return out


def widest_path_bandwidths_multi(
    graph: OverlayGraph, sources: List[int], *, batched: Optional[bool] = None
) -> np.ndarray:
    """Maximum bottleneck bandwidths from each of ``sources`` to every node.

    Returns a ``len(sources) x n`` matrix.  This is the matrix route-value
    entry point used by the vectorised best-response evaluator, which
    needs bottleneck values from every candidate first hop at once (the
    bandwidth analogue of
    :func:`repro.routing.shortest_path.shortest_path_costs_multi`).

    ``batched`` selects the implementation: ``True`` forces the dense
    max-min closure, ``False`` the per-source heap reference loop, and
    ``None`` (default) picks automatically — the closure whenever enough
    sources are requested on a small-enough graph to amortise its
    ``O(n^3)`` squarings.  Both paths return bitwise-identical matrices
    (parity is property-tested), so the switch is purely a performance
    choice.
    """
    if not sources:
        return np.zeros((0, graph.n))
    for src in sources:
        check_index(src, graph.n, "src")
    if batched is None:
        batched = (
            len(sources) >= _CLOSURE_MIN_SOURCES and graph.n <= CLOSURE_MAX_NODES
        )
    if not batched:
        return np.vstack(
            [widest_path_bandwidths_from(graph, src) for src in sources]
        )
    closure = bottleneck_closure_fw(bandwidth_adjacency(graph))
    return closure[np.asarray(sources, dtype=int), :]


def widest_path_tree(
    graph: OverlayGraph, src: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Widest paths with predecessor tracking.

    Returns ``(bandwidth, predecessor)``; ``predecessor[v] == -1`` for the
    source and unreachable nodes.
    """
    check_index(src, graph.n, "src")
    best = np.zeros(graph.n)
    pred = np.full(graph.n, -1, dtype=int)
    best[src] = np.inf
    heap: List[Tuple[float, int]] = [(-np.inf, src)]
    visited = np.zeros(graph.n, dtype=bool)
    while heap:
        neg_bw, u = heapq.heappop(heap)
        if visited[u]:
            continue
        visited[u] = True
        bw_u = -neg_bw
        for v, w in graph.successors(u).items():
            candidate = min(bw_u, w)
            if candidate > best[v]:
                best[v] = candidate
                pred[v] = u
                heapq.heappush(heap, (-candidate, v))
    return best, pred


def widest_path(graph: OverlayGraph, src: int, dst: int) -> Optional[List[int]]:
    """The maximum-bottleneck path from ``src`` to ``dst`` (or None)."""
    check_index(dst, graph.n, "dst")
    best, pred = widest_path_tree(graph, src)
    if best[dst] <= 0:
        return None
    path = [dst]
    while path[-1] != src:
        parent = int(pred[path[-1]])
        if parent < 0:
            return None
        path.append(parent)
    path.reverse()
    return path


def all_pairs_widest_bandwidth(
    graph: OverlayGraph, *, sources: Optional[List[int]] = None
) -> np.ndarray:
    """All-pairs maximum bottleneck bandwidth matrix.

    ``result[i, j]`` is the best achievable bottleneck bandwidth from ``i``
    to ``j`` over the overlay (0 if unreachable, +inf on the diagonal).
    """
    n = graph.n
    if sources is None:
        sources = list(range(n))
    result = np.zeros((n, n))
    np.fill_diagonal(result, np.inf)
    if sources:
        result[list(sources), :] = widest_path_bandwidths_multi(graph, list(sources))
    return result


def path_bottleneck(graph: OverlayGraph, path: List[int]) -> float:
    """Bottleneck (minimum edge weight) of ``path``."""
    if len(path) < 2:
        return float("inf")
    return min(graph.weight(u, v) for u, v in zip(path[:-1], path[1:]))
