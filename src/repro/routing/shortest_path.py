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
(:meth:`repro.core.engine_batch.EngineBatch._derive_residuals`): given
distance rows computed on an *earlier* version of the graph and the set
of nodes whose out-links changed since (one re-wire changes exactly one
node's out-links), it recomputes only the destinations whose values can
pass through changed links and returns rows bit-identical to a fresh
sweep of the new graph.  The kernel is *stacked*: ``old`` may carry a
leading member axis ``(M, rows, n)`` — one independent overlay per
member, each with its own change set and excluded node — and one call
then screens every member, sweeps every member's changed rows in one
block-diagonal Dijkstra (split only past :data:`_SWEEP_MAX_CELLS` output
cells), re-sweeps the members the screen refuses in another, and relaxes
the rest in one set of array passes.  A 2-D call is the ``M = 1`` case
of the same code.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, NamedTuple, Optional, Tuple

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
    """Repair structures for a stack of overlays, patchable row by row.

    Member ``m``'s node ``j`` is block key ``m*n + j`` in both structures,
    which are slot tables of one width each (every key owns that many
    consecutive slots):

    * the out-edges, as one block-diagonal CSR for the C-level sweeps:
      key ``m*n + u`` holds ``u``'s out-edges, padded by ``inf``-weight
      self-loops (:attr:`out_dst` / :attr:`out_w` view its arrays);
    * the in-edges, for cell relaxation: the first :attr:`in_count`
      slots of key ``m*n + j`` in :attr:`in_src` list the nodes with an
      edge into ``j`` and :attr:`in_w` their weights (``-1`` / ``inf``
      pads after them).

    An ``inf`` weight is unusable for any finite distance, so the pads
    change no value.  Weights carry the :func:`_to_csr` zero-nudge, which
    is what keeps repaired sums bit-identical to the fresh sweep.
    :meth:`patch` rewrites whole rows in time proportional to their
    edges and their targets' in-slots — a row outgrowing a width widens
    it — so one set of tables can follow an overlay through many
    re-wires; :meth:`select` views a
    subset of the members, in a caller's order, as the repair kernel's
    members ``0, 1, ...``.
    """

    __slots__ = (
        "n", "blocks", "members", "csr", "out_dst", "out_w", "in_src", "in_w", "in_count",
    )

    def __init__(self, adjacency):
        weights = np.array(adjacency, dtype=float)
        if weights.ndim == 2:
            weights = weights[None]
        blocks, n, _ = weights.shape
        present = ~np.isnan(weights)
        weights[present & (weights <= 0)] = 1e-12
        diagonal = np.arange(n)
        present[:, diagonal, diagonal] = False
        self.n, self.blocks = n, blocks
        self.members = np.arange(blocks)
        flat = np.flatnonzero(present)  # (m, u, v) row-major: by out-key
        key = flat // n
        dst, rank = _slots(key, blocks * n, key // n * n + flat % n)
        self._lay_out(dst)
        self.out_w[key, rank] = weights.reshape(-1)[flat]
        flat = np.flatnonzero(present.transpose(0, 2, 1))  # (m, v, u): by in-key
        key, src = flat // n, flat % n
        self.in_src, rank = _slots(key, blocks * n, src, -1)
        self.in_count = np.bincount(key, minlength=blocks * n)
        self.in_w = np.full(self.in_src.shape, np.inf)
        # Weight (m, src, dst) sits at flat index m*n*n + src*n + dst.
        self.in_w[key, rank] = weights.reshape(-1)[flat + (src - key % n) * (n - 1)]

    def _lay_out(self, dst: np.ndarray) -> None:
        """(Re)build the CSR around a ``(keys, width)`` out-slot table;
        every weight starts as a pad."""
        keys, width = dst.shape
        self.csr = csr_matrix(
            (
                np.full(keys * width, np.inf),
                dst.reshape(-1).astype(np.int32),
                np.arange(keys + 1, dtype=np.int32) * width,
            ),
            shape=(keys, keys),
        )
        self.out_dst = self.csr.indices.reshape(keys, width)
        self.out_w = self.csr.data.reshape(keys, width)

    def select(self, members) -> "ShortestRepairTables":
        """These tables with member ``i`` standing for block ``members[i]``
        (valid until the next :meth:`patch`)."""
        view = object.__new__(ShortestRepairTables)
        for name in self.__slots__:
            setattr(view, name, getattr(self, name))
        view.members = np.asarray(members, dtype=np.int64)
        return view

    def patch(self, blocks, nodes, rows) -> None:
        """Rewrite node ``nodes[i]``'s out-links in block ``blocks[i]`` to
        the dense row ``rows[i]`` (``NaN`` absent); the pairs are
        distinct.  One set of array operations serves every row, over the
        rows' old and new edges and the in-slots of their targets."""
        n = self.n
        nodes = np.asarray(nodes, dtype=np.int64)
        keys = np.asarray(blocks, dtype=np.int64) * n + nodes
        rows = np.array(rows, dtype=float)
        rows[np.arange(len(keys)), nodes] = np.nan
        r, v = np.nonzero(rows == rows)  # the new edges, row-major
        w = rows[r, v]
        w[w <= 0] = 1e-12
        into = keys[r] - nodes[r] + v
        # The rows' current out-edges leave their targets' in-slots, and
        # each target's remaining in-edges close up (it may lose several).
        old = self.out_dst[keys]
        i, s = np.nonzero(old != keys[:, None])
        if len(i):
            gone = old[i, s].astype(np.int64)
            slot = np.argmax(self.in_src[gone] == nodes[i, None], axis=1)
            self.in_src[gone, slot] = -1
            self.in_w[gone, slot] = np.inf
            touched = np.unique(gone)
            order = np.argsort(self.in_src[touched] < 0, axis=1, kind="stable")
            self.in_src[touched] = self.in_src[touched[:, None], order]
            self.in_w[touched] = self.in_w[touched[:, None], order]
            np.subtract.at(self.in_count, gone, 1)
        # ... the new ones fill the rows' out-slots ...
        rank = _ranks(r)
        width = self.out_dst.shape[1]
        if len(r) and rank.max() >= width:
            dst, weights = self.out_dst, self.out_w
            self._lay_out(np.repeat(np.arange(len(dst))[:, None], rank.max() + 1, axis=1))
            self.out_dst[:, :width] = dst
            self.out_w[:, :width] = weights
        self.out_dst[keys] = keys[:, None]
        self.out_w[keys] = np.inf
        self.out_dst[keys[r], rank] = into
        self.out_w[keys[r], rank] = w
        # ... and join their targets' in-edges, after the ones they keep.
        order = np.argsort(into, kind="stable")
        into, w = into[order], w[order]
        slot = self.in_count[into] + _ranks(into)
        grow = int(slot.max(initial=-1)) + 1 - self.in_src.shape[1]
        if grow > 0:
            self.in_src = np.pad(self.in_src, ((0, 0), (0, grow)), constant_values=-1)
            self.in_w = np.pad(self.in_w, ((0, 0), (0, grow)), constant_values=np.inf)
        self.in_src[into, slot] = nodes[r][order]
        self.in_w[into, slot] = w
        self.in_count[into] = slot + 1


def _ranks(keys: np.ndarray) -> np.ndarray:
    """Each entry's place among the equal entries before it (``keys``
    sorted)."""
    return np.arange(len(keys)) - np.searchsorted(keys, keys)


def _slots(keys: np.ndarray, count: int, values, pad=None) -> Tuple[np.ndarray, np.ndarray]:
    """A ``(count, width)`` slot table holding ``values`` under their
    (sorted) ``keys`` — padded by ``pad``, or by each key's own index —
    and each value's slot; the width is the fullest key's."""
    rank = _ranks(keys)
    width = int(rank.max()) + 1 if len(keys) else 0
    if pad is None:
        table = np.repeat(np.arange(count)[:, None], width, axis=1)
    else:
        table = np.full((count, width), pad)
    table[keys, rank] = values
    return table, rank


def shortest_inbound_tables(adjacency) -> ShortestRepairTables:
    """Shareable ``tables`` argument for :func:`repair_shortest_rows`:
    an ``(n, n)`` overlay, or an ``(M, n, n)`` stack (or list) of them."""
    return ShortestRepairTables(adjacency)


#: Suspect share above which :func:`repair_shortest_rows` stops
#: relaxing a member's cells and re-sweeps its unchanged rows in one
#: C-level call (measured crossover: 0.3 of the matrix at n = 200, 0.5
#: at n = 100).
_SWEEP_ABOVE_SUSPECT = 0.35

#: ``c`` of the screen's ``1 - c*n*eps`` slack factor (see
#: :func:`repair_shortest_rows` for why ``c = 4`` is rigorous).
_SCREEN_SLACK = 4.0

#: Cell cap of one sweep call's dense ``rows x M*n`` output (8 MB).
_SWEEP_MAX_CELLS = 1 << 20

_EPS = float(np.finfo(float).eps)


class ShortestRepairScreen(NamedTuple):
    """Result of :func:`screen_shortest_repair`.

    ``rows`` is the stale matrix with the changed nodes' own rows
    already recomputed; ``suspect`` flags the remaining cells whose
    value may pass through a changed node.  Every other cell of ``rows``
    already holds its final bits.  Both are ``(M, rows, n)`` for a
    stacked screen and ``(rows, n)`` for a 2-D one.
    """

    rows: np.ndarray
    suspect: np.ndarray

    @property
    def sweeps(self) -> np.ndarray:
        """Per member, whether :func:`repair_shortest_rows` will re-sweep
        its unchanged rows rather than relax this many suspects (a
        0-d array for a 2-D screen)."""
        shape = self.suspect.shape
        cells = max(1, shape[-2] * shape[-1])
        members = self.suspect.reshape(-1, *shape[-2:])
        sweeps = [np.count_nonzero(one) / cells > _SWEEP_ABOVE_SUSPECT for one in members]
        return np.array(sweeps).reshape(shape[:-2])


def _stacked(old, changed, exclude) -> Tuple[np.ndarray, List[List[int]], np.ndarray]:
    """``(old, changed, exclude)`` of a stacked call in canonical form:
    a float ``(M, rows, n)`` array, each member's sorted change set, and
    each member's excluded node (``-1``: none)."""
    old = np.asarray(old, dtype=float)
    changed = [sorted({int(c) for c in nodes}) for nodes in changed]
    if exclude is None:
        excluded = np.full(old.shape[0], -1, dtype=np.int64)
    elif isinstance(exclude, np.ndarray):
        excluded = exclude  # already canonical
    else:
        excluded = np.array([-1 if x is None else int(x) for x in exclude], dtype=np.int64)
    return old, changed, excluded


def _sweep_rows(
    tables: ShortestRepairTables,
    member: np.ndarray,
    source: np.ndarray,
    excluded: np.ndarray,
) -> np.ndarray:
    """Fresh Dijkstra rows: row ``i`` from node ``source[i]`` of member
    ``member[i]``, that member's excluded node's out-edges removed.

    Every row comes from csgraph calls over the tables' block-diagonal
    CSR (as few as :data:`_SWEEP_MAX_CELLS` allows); blocks are
    disconnected, so each row is exactly its member's own sweep.
    """
    n, blocks = tables.n, tables.blocks
    out = np.full((len(member), n), np.inf)
    # The excluded node has no out-links: it reaches only itself.
    lone = source == excluded[member]
    out[lone, source[lone]] = 0.0
    if lone.all():
        return out
    todo = np.flatnonzero(~lone)
    block = tables.members[member]
    cutting = todo[excluded[member[todo]] >= 0]
    cut = np.unique(block[cutting] * n + excluded[member[cutting]])
    # An inf-weight edge is unusable for any finite distance, so masking
    # the excluded nodes' out-edges this way (in place, restored below)
    # yields the very same distances as removing them.
    kept = tables.out_w[cut]
    tables.out_w[cut] = np.inf
    try:
        step = max(1, _SWEEP_MAX_CELLS // (blocks * n))
        for start in range(0, len(todo), step):
            rows = todo[start : start + step]
            telemetry.kernel_call("shortest.repair.sweep", len(rows))
            dist = _csgraph_dijkstra(
                tables.csr, directed=True, indices=block[rows] * n + source[rows]
            )
            dist = np.asarray(dist, dtype=float).reshape(len(rows), blocks, n)
            out[rows] = dist[np.arange(len(rows)), block[rows]]
    finally:
        tables.out_w[cut] = kept
    return out


def screen_shortest_repair(
    old: np.ndarray,
    sources: np.ndarray,
    changed: Iterable,
    tables: ShortestRepairTables,
    *,
    exclude=None,
) -> ShortestRepairScreen:
    """Phase 1 of :func:`repair_shortest_rows`: new changed rows + suspects.

    Recomputes the changed nodes' own rows (every path from a changed
    node starts on a changed out-link) and flags, by the triangle test
    derived in :func:`repair_shortest_rows`, every other cell a changed
    node could affect.  A caller that wants to look at the outcome
    first (:attr:`~ShortestRepairScreen.sweeps`) hands the screen back
    to :func:`repair_shortest_rows` (``screen=``) so it is computed once.
    The arguments are :func:`repair_shortest_rows`'s, stacked or 2-D.
    """
    if np.ndim(old) == 2:
        rows, suspect = screen_shortest_repair(
            np.asarray(old)[None], sources, [changed], tables, exclude=[exclude]
        )
        return ShortestRepairScreen(rows[0], suspect[0])
    old, changed, excluded = _stacked(old, changed, exclude)
    members, rows, n = old.shape
    sources = np.asarray(sources, dtype=int)
    repaired = old.copy()
    if rows == 0 or not any(changed):
        return ShortestRepairScreen(repaired, np.zeros(old.shape, dtype=bool))
    # One entry per (member, changed node) pair, member-major; ``rank``
    # is the pair's place in its member's change set.
    pm = np.array([m for m, nodes in enumerate(changed) for _ in nodes])
    pr = np.array([r for nodes in changed for r in nodes])
    rank = [t for nodes in changed for t in range(len(nodes))]
    row_of = np.full(n, -1)
    row_of[sources] = np.arange(rows)
    prow = row_of[pr]
    own = prow >= 0
    at = (pm[own], prow[own])
    repaired[at] = _sweep_rows(tables, at[0], pr[own], excluded)
    slack = 1.0 - _SCREEN_SLACK * n * _EPS
    # NaN marks "no path this way": it survives the additions and
    # compares False below, which is what exempts unreachable heads and
    # tails, and column r itself.
    head = old[pm, :, pr] * slack
    head[np.isinf(head)] = np.nan
    tail = np.zeros((len(pm), n))  # only the prefix bound is known
    tail[own] = np.minimum(old[at], repaired[at]) * slack
    tail[np.isinf(tail)] = np.nan
    tail[np.arange(len(pm)), pr] = np.nan
    bound = None
    for t in range(max(rank) + 1):
        # The t-th changed node of every member that has one.
        nth = [i for i, k in enumerate(rank) if k == t]
        through = head[nth, :, None] + tail[nth, None, :]
        if len(nth) == members:
            bound = through if bound is None else np.fmin(bound, through, out=bound)
            continue
        if bound is None:
            bound = np.full(old.shape, np.nan)
        bound[pm[nth]] = np.fmin(through, bound[pm[nth]], out=through)
    suspect = bound <= old
    suspect[at] = False
    suspect[:, np.arange(rows), sources] = False
    return ShortestRepairScreen(repaired, suspect)


def _relax_cells(
    values: np.ndarray,
    suspect: np.ndarray,
    tables: ShortestRepairTables,
    excluded: np.ndarray,
) -> np.ndarray:
    """Bellman fixpoint of the ``suspect`` cells of ``values``, in place.

    Each suspect cell ``(m, h, j)`` restarts from ``inf`` and is relaxed
    over member ``m``'s in-edges of ``j`` only — ``min_u values[m, h, u]
    + w(u, j)``, one ragged gather plus a segmented minimum per round
    over every member at once — until a round changes nothing.  Every
    other cell is read, never written.
    """
    members, rows, n = values.shape
    flat = values.reshape(-1)
    cell = np.flatnonzero(suspect)
    flat[cell] = np.inf
    col = cell % n
    member = cell // (rows * n)
    key = tables.members[member] * n + col
    degree = tables.in_count[key]
    fed = degree > 0  # cells with no in-edge stay unreachable
    if not fed.all():
        cell, col, member, key, degree = (
            cell[fed], col[fed], member[fed], key[fed], degree[fed]
        )
    telemetry.kernel_call("shortest.repair.relax", len(cell))
    if not len(cell):
        return values
    starts = np.zeros(len(cell), dtype=np.int64)
    np.cumsum(degree[:-1], out=starts[1:])
    # Ragged expansion: cell c owns the first degree[c] slots of its key.
    edge = np.arange(int(starts[-1] + degree[-1])) + np.repeat(
        key * tables.in_src.shape[1] - starts, degree
    )
    src = tables.in_src.reshape(-1)[edge]
    w = tables.in_w.reshape(-1)[edge]
    if excluded.max() >= 0:
        # The excluded node's out-edges are absent from its member.
        w[src == np.repeat(excluded[member], degree)] = np.inf
    feeder = np.repeat(cell - col, degree) + src
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
    changed: Iterable,
    adjacency: Optional[np.ndarray],
    *,
    exclude=None,
    tables: Optional[ShortestRepairTables] = None,
    screen: Optional[ShortestRepairScreen] = None,
) -> np.ndarray:
    """Repair stale shortest-path rows after a set of nodes re-wired.

    Parameters
    ----------
    old:
        ``(rows, n)`` distance rows, each valid for an earlier version of
        the graph (``inf`` for unreachable — the
        :func:`shortest_path_costs_multi` default convention) — or an
        ``(M, rows, n)`` stack of such rows, one independent overlay per
        member, which the kernel repairs in one call.
    sources:
        The (distinct) source node of each row, shared by every member.
    changed:
        Nodes whose *out-links* changed between the old graph and
        ``adjacency`` (a re-wire changes exactly one node's out-links;
        membership-preserving epochs accumulate one entry per re-wire).
        Stacked: one such collection per member.
    adjacency:
        Dense ``n x n`` (stacked: ``M x n x n``) announced-weight matrix
        of the **new** graph, ``NaN`` marking absent edges (unused when
        ``tables`` is given).
    exclude:
        Optionally a node whose out-edges are treated as absent even if
        present in ``adjacency`` — the residual-graph convention, letting
        callers share one dense overlay matrix (and one set of in-edge
        ``tables``) across every node's residual repair instead of
        materialising per-node copies.  Deriving node ``i``'s residual
        rows from the all-pairs matrix of the full overlay is the call
        ``changed={i}, exclude=i``.  Stacked: one node (or None) per
        member.
    tables:
        Optional precomputed :func:`shortest_inbound_tables` result for
        that sharing.
    screen:
        Optional :func:`screen_shortest_repair` result for these very
        arguments, from a caller that already screened.

    Returns rows bit-identical to a fresh
    :func:`shortest_path_costs_multi` sweep of the new graph (of each
    member's new graph, stacked).  Members are independent throughout:
    one block-diagonal Dijkstra sweeps every member's changed rows, the
    members whose screen says *sweep* are re-swept together, and the
    rest relax together; no value of one member ever reads another's.

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
    if np.ndim(old) == 2:
        if screen is not None:
            screen = ShortestRepairScreen(screen.rows[None], screen.suspect[None])
        return repair_shortest_rows(
            np.asarray(old)[None], sources, [changed], adjacency,
            exclude=[exclude], tables=tables, screen=screen,
        )[0]
    old, changed, excluded = _stacked(old, changed, exclude)
    members, rows, _n = old.shape
    sources = np.asarray(sources, dtype=int)
    if rows == 0 or not any(changed):
        return old.copy()
    telemetry.kernel_call("shortest.repair", members * rows)
    if tables is None:
        tables = shortest_inbound_tables(adjacency)
    if screen is None:
        screen = screen_shortest_repair(old, sources, changed, tables, exclude=excluded)
    repaired, suspect = screen
    refused = np.flatnonzero(screen.sweeps)
    if len(refused):
        # Every row of a refused member whose source did not change.
        untouched = [np.flatnonzero(~np.isin(sources, changed[m])) for m in refused]
        member = np.repeat(refused, [len(at) for at in untouched])
        at = np.concatenate(untouched)
        repaired[member, at] = _sweep_rows(tables, member, sources[at], excluded)
        if len(refused) == members:
            return repaired
        suspect = suspect.copy()
        suspect[refused] = False
    return _relax_cells(repaired, suspect, tables, excluded)


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
