"""Shortest-path routing over the overlay graph.

Routing in EGOIST is standard shortest-path routing over the selfishly
constructed overlay topology (the paper is explicit that it is *not*
selfish source routing).  Costs are additive: link delays for the delay
metric, or per-node loads mapped onto outgoing links for the node-load
metric.

Two implementations are provided:

* a heap-based Dijkstra over the :class:`~repro.routing.graph.OverlayGraph`
  adjacency structure (used for single-source queries and path extraction),
* a vectorised repeated-Dijkstra all-pairs routine returning a dense cost
  matrix (used by the cost functions in :mod:`repro.core.cost`, which need
  distances from every node to every destination).

Unreachable destinations get cost ``disconnection_cost`` — the paper's
``M >> n`` convention — so that best responses are strongly incentivised to
re-connect partitions.

A third entry point, :func:`repair_shortest_rows`, is the dynamic-SSSP
kernel behind the lockstep batch's maintained all-pairs planner
(:meth:`repro.core.engine_batch._LockstepState.derive_residual`): given
distance rows computed on an *earlier* version of the graph and the set
of nodes whose out-links changed since (one re-wire changes exactly one
node's out-links), it recomputes only the destinations whose values can
pass through changed links and returns rows bit-identical to a fresh
sweep of the new graph.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.routing.graph import OverlayGraph
from repro.telemetry import runtime as telemetry
from repro.util.validation import check_index

#: Default cost assigned to unreachable destinations ("M >> n" in the paper).
DEFAULT_DISCONNECTION_COST = float("inf")


def _to_csr(graph: OverlayGraph) -> csr_matrix:
    """Sparse adjacency matrix of ``graph`` (zero-weight edges preserved).

    Assembled directly in CSR form (indptr/indices/data) from the per-node
    adjacency, skipping the COO intermediate.  scipy's csgraph treats
    explicit zeros as absent edges unless told otherwise; we nudge zero
    weights to a tiny epsilon so that zero-cost links (possible under the
    node-load metric) stay routable.
    """
    n = graph.n
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices: List[int] = []
    data: List[float] = []
    for u in range(n):
        succ = graph.successors(u)
        indptr[u + 1] = indptr[u] + len(succ)
        indices.extend(succ.keys())
        data.extend(w if w > 0 else 1e-12 for w in succ.values())
    return csr_matrix(
        (np.asarray(data, dtype=float), np.asarray(indices, dtype=np.int64), indptr),
        shape=(n, n),
    )


def shortest_path_costs_from(
    graph: OverlayGraph,
    src: int,
    *,
    disconnection_cost: float = DEFAULT_DISCONNECTION_COST,
) -> np.ndarray:
    """Single-source shortest-path costs from ``src`` to every node.

    Returns an array of length ``n`` with 0 at ``src`` and
    ``disconnection_cost`` for unreachable nodes.
    """
    check_index(src, graph.n, "src")
    dist = _csgraph_dijkstra(_to_csr(graph), directed=True, indices=src)
    dist = np.asarray(dist, dtype=float)
    if not np.isinf(disconnection_cost):
        dist[np.isinf(dist)] = disconnection_cost
    return dist


def shortest_path_costs_multi(
    graph: OverlayGraph,
    sources: List[int],
    *,
    disconnection_cost: float = DEFAULT_DISCONNECTION_COST,
) -> np.ndarray:
    """Shortest-path costs from each of ``sources`` to every node.

    Returns a ``len(sources) x n`` matrix.  This is the vectorised core
    used by the best-response evaluator, which needs routing values from
    every candidate first hop at once.
    """
    if not sources:
        return np.zeros((0, graph.n))
    for src in sources:
        check_index(src, graph.n, "src")
    telemetry.kernel_call("shortest.multi", len(sources))
    dist = _csgraph_dijkstra(_to_csr(graph), directed=True, indices=sources)
    dist = np.atleast_2d(np.asarray(dist, dtype=float))
    if not np.isinf(disconnection_cost):
        dist[np.isinf(dist)] = disconnection_cost
    return dist


class ShortestRepairTables:
    """Shared, lazily-built relaxation structures for one overlay version.

    Stores the effective-weight matrix once (the :func:`_to_csr`
    zero-nudge applied — which is what keeps repaired sums bit-identical
    to the fresh sweep) and materialises the destination-major in-edge
    lists (cell relaxation) and the source-major CSR (direct C-level
    sweeps) only when a repair actually takes that strategy, so sharing
    the tables across many small repairs never pays for the structures
    they skip.
    """

    __slots__ = ("weights", "_present", "_edges", "_csr")

    def __init__(self, adjacency: np.ndarray):
        weights = np.array(adjacency, dtype=float, copy=True)
        present = ~np.isnan(weights)
        weights[present & (weights <= 0)] = 1e-12
        np.fill_diagonal(present, False)
        self.weights = weights
        self._present = present
        self._edges = None
        self._csr = None

    @property
    def edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """In-edges as ``(indptr, src, w)``: node ``j``'s in-edges are
        ``src[indptr[j]:indptr[j + 1]]`` with weights ``w[...]``."""
        if self._edges is None:
            n = self.weights.shape[0]
            dst, src = np.nonzero(self._present.T)  # destination-major
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(dst, minlength=n), out=indptr[1:])
            self._edges = (indptr, src, self.weights[src, dst])
        return self._edges

    @property
    def csr(self) -> csr_matrix:
        if self._csr is None:
            n = self.weights.shape[0]
            out_src, out_dst = np.nonzero(self._present)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(out_src, minlength=n), out=indptr[1:])
            self._csr = csr_matrix(
                (
                    self.weights[out_src, out_dst],
                    out_dst.astype(np.int64),
                    indptr,
                ),
                shape=(n, n),
            )
        return self._csr


def shortest_inbound_tables(adjacency: np.ndarray) -> ShortestRepairTables:
    """Shareable ``tables`` argument for :func:`repair_shortest_rows`."""
    return ShortestRepairTables(adjacency)


#: Suspect share above which :func:`repair_shortest_rows` stops
#: relaxing cells and re-sweeps the unchanged rows in one C-level call
#: (measured crossover: 0.3 of the matrix at n = 200, 0.5 at n = 100).
_SWEEP_ABOVE_SUSPECT = 0.35

#: ``c`` of the screen's ``1 - c*n*eps`` slack factor (see
#: :func:`repair_shortest_rows` for why ``c = 4`` is rigorous).
_SCREEN_SLACK = 4.0


class ShortestRepairScreen(NamedTuple):
    """Result of :func:`screen_shortest_repair`.

    ``rows`` is the stale matrix with the changed nodes' own rows
    already recomputed; ``suspect`` flags the remaining cells whose
    value may pass through a changed node.  Every other cell of ``rows``
    already holds its final bits.
    """

    rows: np.ndarray
    suspect: np.ndarray

    @property
    def share(self) -> float:
        """Suspect fraction of the matrix."""
        return np.count_nonzero(self.suspect) / max(1, self.suspect.size)

    @property
    def sweeps(self) -> bool:
        """Whether :func:`repair_shortest_rows` will re-sweep the
        unchanged rows rather than relax this many suspects."""
        return self.share > _SWEEP_ABOVE_SUSPECT


def _sweep_rows(
    tables: ShortestRepairTables, indices: np.ndarray, exclude: Optional[int]
) -> np.ndarray:
    """Fresh Dijkstra rows over the tables' CSR (``exclude`` masked out)."""
    if exclude is not None and len(indices) == 1 and int(indices[0]) == int(exclude):
        # The excluded node has no out-links: it reaches only itself.
        unit = np.full((1, tables.weights.shape[0]), np.inf)
        unit[0, int(exclude)] = 0.0
        return unit
    csr = tables.csr
    if exclude is not None:
        lo = int(csr.indptr[int(exclude)])
        hi = int(csr.indptr[int(exclude) + 1])
        if hi > lo:
            # An inf-weight edge is unusable for any finite distance,
            # so masking the excluded node's out-edges this way
            # yields the very same distances as removing them.
            data = csr.data.copy()
            data[lo:hi] = np.inf
            csr = csr_matrix((data, csr.indices, csr.indptr), shape=csr.shape)
    telemetry.kernel_call("shortest.repair.sweep", len(indices))
    dist = _csgraph_dijkstra(csr, directed=True, indices=indices)
    return np.atleast_2d(np.asarray(dist, dtype=float))


def screen_shortest_repair(
    old: np.ndarray,
    sources: np.ndarray,
    changed: Iterable[int],
    tables: ShortestRepairTables,
    *,
    exclude: Optional[int] = None,
) -> ShortestRepairScreen:
    """Phase 1 of :func:`repair_shortest_rows`: new changed rows + suspects.

    Recomputes the changed nodes' own rows (every path from a changed
    node starts on a changed out-link) and flags, by the triangle test
    derived in :func:`repair_shortest_rows`, every other cell a changed
    node could affect.  A caller that wants to look at the outcome
    first (:attr:`~ShortestRepairScreen.share`,
    :attr:`~ShortestRepairScreen.sweeps`) hands the screen back to
    :func:`repair_shortest_rows` (``screen=``) so it is computed once.
    """
    old = np.asarray(old, dtype=float)
    rows, n = old.shape
    sources = np.asarray(sources, dtype=int)
    changed = sorted({int(c) for c in changed})
    repaired = old.copy()
    if rows == 0 or not changed:
        return ShortestRepairScreen(repaired, np.zeros(old.shape, dtype=bool))
    rows_of = [np.flatnonzero(sources == r) for r in changed]
    changed_rows = np.concatenate(rows_of)
    if len(changed_rows):
        repaired[changed_rows] = _sweep_rows(tables, sources[changed_rows], exclude)
    slack = 1.0 - _SCREEN_SLACK * n * np.finfo(float).eps
    bound = None
    for r, at in zip(changed, rows_of):
        # NaN marks "no path this way": it survives the additions and
        # compares False below, which is what exempts unreachable heads
        # and tails, and column r itself.
        head = old[:, r] * slack
        head[np.isinf(head)] = np.nan
        if len(at):
            tail = np.minimum(old[at[0]], repaired[at[0]]) * slack
            tail[np.isinf(tail)] = np.nan
        else:
            tail = np.zeros(n)  # only the prefix bound is known
        tail[r] = np.nan
        through = head[:, None] + tail[None, :]
        bound = through if bound is None else np.fmin(bound, through, out=bound)
    suspect = bound <= old
    suspect[changed_rows] = False
    suspect[np.arange(rows), sources] = False
    return ShortestRepairScreen(repaired, suspect)


def _relax_cells(
    values: np.ndarray,
    suspect: np.ndarray,
    tables: ShortestRepairTables,
    exclude: Optional[int],
) -> np.ndarray:
    """Bellman fixpoint of the ``suspect`` cells of ``values``, in place.

    Each suspect cell ``(h, j)`` restarts from ``inf`` and is relaxed
    over ``j``'s in-edges only — ``min_u values[h, u] + w(u, j)``, one
    ragged gather plus a segmented minimum per round — until a round
    changes nothing.  Every other cell is read, never written.
    """
    n = values.shape[1]
    indptr, src, w = tables.edges
    if exclude is not None:
        w = np.where(src == int(exclude), np.inf, w)
    flat = values.reshape(-1)
    cell = np.flatnonzero(suspect)
    flat[cell] = np.inf
    col = cell % n
    degree = indptr[col + 1] - indptr[col]
    fed = degree > 0  # cells with no in-edge stay unreachable
    cell, col, degree = cell[fed], col[fed], degree[fed]
    telemetry.kernel_call("shortest.repair.relax", len(cell))
    if not len(cell):
        return values
    starts = np.zeros(len(cell), dtype=np.int64)
    np.cumsum(degree[:-1], out=starts[1:])
    # Ragged expansion: cell c owns edges indptr[col[c]] .. +degree[c].
    edge = np.arange(int(starts[-1] + degree[-1])) + np.repeat(
        indptr[col] - starts, degree
    )
    feeder = np.repeat(cell - col, degree) + src[edge]
    w = w[edge]
    current = flat[cell]
    while True:
        # Cells start at inf and their feeders only ever decrease, so
        # each round's minima are at or below the last round's.
        relaxed = np.minimum.reduceat(flat[feeder] + w, starts)
        if np.array_equal(relaxed, current):
            return values
        flat[cell] = current = relaxed


def repair_shortest_rows(
    old: np.ndarray,
    sources: np.ndarray,
    changed: Iterable[int],
    adjacency: Optional[np.ndarray],
    *,
    exclude: Optional[int] = None,
    tables: Optional[ShortestRepairTables] = None,
    screen: Optional[ShortestRepairScreen] = None,
) -> np.ndarray:
    """Repair stale shortest-path rows after a set of nodes re-wired.

    Parameters
    ----------
    old:
        ``(rows, n)`` distance rows, each valid for an earlier version of
        the graph (``inf`` for unreachable — the
        :func:`shortest_path_costs_multi` default convention).
    sources:
        The source node of each row.
    changed:
        Nodes whose *out-links* changed between the old graph and
        ``adjacency`` (a re-wire changes exactly one node's out-links;
        membership-preserving epochs accumulate one entry per re-wire).
    adjacency:
        Dense ``n x n`` announced-weight matrix of the **new** graph,
        ``NaN`` marking absent edges (unused when ``tables`` is given).
    exclude:
        Optionally a node whose out-edges are treated as absent even if
        present in ``adjacency`` — the residual-graph convention, letting
        callers share one dense overlay matrix (and one set of in-edge
        ``tables``) across every node's residual repair instead of
        materialising per-node copies.  Deriving node ``i``'s residual
        rows from the all-pairs matrix of the full overlay is the call
        ``changed={i}, exclude=i``.
    tables:
        Optional precomputed :func:`shortest_inbound_tables` result for
        that sharing.
    screen:
        Optional :func:`screen_shortest_repair` result for these very
        arguments, from a caller that already screened.

    Returns rows bit-identical to a fresh
    :func:`shortest_path_costs_multi` sweep of the new graph.

    Why an incremental update can be exact
    --------------------------------------
    *The value.*  Weights are positive and float ``+`` is monotone, so
    ``fl(x + w) >= x`` and the running sum never decreases along a path.
    Dijkstra's value for a destination is therefore the minimum over all
    paths of the *left-associated* float sum ``fl(..fl(fl(w1 + w2) + w3)
    .. + wm)`` — a well-defined function of the graph — and it satisfies
    ``d[j] = min_u fl(d[u] + w(u, j))`` over **all** in-neighbours (a
    ``u`` settled after ``j`` has ``d[u] >= d[j]`` and cannot undercut
    it).

    *The screen.*  Let ``C`` be the changed nodes, ``u = eps/2`` the unit
    roundoff, and take any path ``P`` from ``h`` to ``j``, in the old or
    the new graph, that visits ``C``; let ``r`` be the first node of
    ``C`` on it.  The prefix ``h..r`` uses only out-links of unchanged
    nodes, so it exists in both graphs and its own float sum is at least
    ``a = old[h, r]``.  The tail ``r..j`` is a path of whichever graph
    ``P`` lives in, so its own float sum is at least ``b = min(old[r, j],
    new[r, j])`` (``new[r]`` being the freshly swept row).  A float sum
    of ``m`` positive terms lies within ``(1 ± u)^(m-1)`` of the real
    sum, and a simple path has fewer than ``n`` edges, hence in real
    arithmetic ``S(P) >= (A + B)(1 - u)^n`` with ``A >= a (1 - u)^n`` and
    ``B >= b (1 - u)^n``, i.e. ``S(P) >= (a + b)(1 - n*eps)``.  The
    screen evaluates ``fl(fl(a*s) + fl(b*s))`` with ``s = 1 - c*n*eps``,
    which exceeds ``(a + b) * s`` by at most ``(1 + u)^2``; with ``c =
    4`` that is still below ``(a + b)(1 - n*eps)``.  So a cell with
    ``bound(h, j) > old[h, j]`` for every ``r`` has no path through
    ``C``, old or new, as cheap as its old value: the old value was
    attained by a ``C``-avoiding path, those paths and their float sums
    are the same in both graphs, and the cell keeps its bits.  All other
    cells are *suspect*.  Exempt from ``r``'s test are column ``r`` (a
    path to ``r`` that already visited ``r`` contains a cycle, and
    dropping a cycle never raises a monotone running sum; ``r``'s
    in-links did not change), the diagonal, and any cell with ``a`` or
    ``b`` infinite — ``h`` cannot reach ``r``, or ``r`` reaches ``j`` in
    neither graph — which is what keeps already-unreachable cells out of
    the suspect set after a deletion.  A changed node that is not among
    ``sources`` offers no tail rows, and only the exact prefix bound
    ``old[h, r] <= S(P)`` is applied.

    *The relaxation.*  Suspect cells restart from ``inf`` and are relaxed
    by tail extensions ``fl(values[h, u] + w(u, j))`` until nothing
    moves.  Every intermediate value is ``inf`` or the float sum of a
    real path of the new graph — a realizable upper bound — and the
    non-suspect cells (the source's own ``0`` among them) are already
    exact, so by induction along the optimal path each suspect cell
    reaches the minimum over paths: the unique least fixpoint, which is
    the Dijkstra value.  When more than about a third of the matrix is
    suspect the rounds cannot beat one C-level multi-source sweep, which
    computes the same function and is equally bit-exact.
    """
    old = np.asarray(old, dtype=float)
    sources = np.asarray(sources, dtype=int)
    rows = old.shape[0]
    changed = sorted({int(c) for c in changed})
    if rows == 0 or not changed:
        return old.copy()
    telemetry.kernel_call("shortest.repair", rows)
    if tables is None:
        tables = shortest_inbound_tables(adjacency)
    if screen is None:
        screen = screen_shortest_repair(old, sources, changed, tables, exclude=exclude)
    repaired, suspect = screen
    if screen.sweeps:
        untouched = np.flatnonzero(~np.isin(sources, changed))
        if len(untouched):
            repaired[untouched] = _sweep_rows(tables, sources[untouched], exclude)
        return repaired
    return _relax_cells(repaired, suspect, tables, exclude)


def shortest_path_tree(
    graph: OverlayGraph, src: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Single-source shortest paths with predecessor tracking.

    Returns ``(dist, predecessor)`` arrays; ``predecessor[v] == -1`` for the
    source and for unreachable nodes.
    """
    check_index(src, graph.n, "src")
    dist = np.full(graph.n, np.inf)
    pred = np.full(graph.n, -1, dtype=int)
    dist[src] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, src)]
    visited = np.zeros(graph.n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if visited[u]:
            continue
        visited[u] = True
        for v, w in graph.successors(u).items():
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, pred


def shortest_path(
    graph: OverlayGraph, src: int, dst: int
) -> Optional[List[int]]:
    """The shortest path from ``src`` to ``dst`` as a node list, or None."""
    check_index(dst, graph.n, "dst")
    dist, pred = shortest_path_tree(graph, src)
    if np.isinf(dist[dst]):
        return None
    path = [dst]
    while path[-1] != src:
        parent = int(pred[path[-1]])
        if parent < 0:
            return None
        path.append(parent)
    path.reverse()
    return path


def all_pairs_shortest_costs(
    graph: OverlayGraph,
    *,
    disconnection_cost: float = DEFAULT_DISCONNECTION_COST,
    sources: Optional[List[int]] = None,
) -> np.ndarray:
    """All-pairs shortest-path cost matrix.

    Parameters
    ----------
    graph:
        Overlay graph with additive edge costs.
    disconnection_cost:
        Cost assigned to unreachable (source, destination) pairs.
    sources:
        Optional subset of sources to compute (rows for other sources are
        filled with ``disconnection_cost`` except their diagonal).  Useful
        when only a few nodes' costs are needed.

    Returns
    -------
    numpy.ndarray
        ``n x n`` matrix ``D`` with ``D[i, j]`` the overlay routing cost
        from ``i`` to ``j``.
    """
    n = graph.n
    if sources is None:
        sources = list(range(n))
    if np.isinf(disconnection_cost):
        result = np.full((n, n), np.inf)
    else:
        result = np.full((n, n), float(disconnection_cost))
    np.fill_diagonal(result, 0.0)
    if sources:
        result[sources, :] = shortest_path_costs_multi(
            graph, list(sources), disconnection_cost=disconnection_cost
        )
    return result


def path_cost(graph: OverlayGraph, path: List[int]) -> float:
    """Total additive cost of ``path`` (consecutive edges must exist)."""
    total = 0.0
    for u, v in zip(path[:-1], path[1:]):
        total += graph.weight(u, v)
    return total


def average_path_stretch(
    graph: OverlayGraph, direct_costs: np.ndarray
) -> float:
    """Mean ratio of overlay routing cost to the direct (one-hop) cost.

    ``direct_costs[i, j]`` is the cost of a hypothetical direct overlay
    link; the stretch measures how much the degree-constrained overlay
    inflates routing cost relative to a full mesh.  Pairs that are
    unreachable in the overlay are skipped.
    """
    overlay_costs = all_pairs_shortest_costs(graph)
    n = graph.n
    ratios = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            direct = direct_costs[i, j]
            routed = overlay_costs[i, j]
            if direct > 0 and np.isfinite(routed):
                ratios.append(routed / direct)
    return float(np.mean(ratios)) if ratios else float("inf")
