"""The stateless kernels of the lockstep driver: one kernel, one sweep, one fill.

The lockstep driver of :mod:`repro.core.engine_batch` advances many
*independent* deployments one re-wiring opportunity at a time — the
epoch-driven engines of :class:`~repro.core.engine_batch.EngineBatch`
and the build-time best-response rounds of
:class:`~repro.core.deployment_batch.DeploymentBatch` alike.  The
kernels it calls live here:

* :func:`fused_best_response` — **the** re-wiring kernel: current-wiring
  score, greedy seed and single-swap local search of a whole group of
  opportunities as broadcasts over one padded via tensor, with the
  unreachable clamp and the preference weights folded into that tensor
  once.  The driver gathers the per-member inputs, calls it, and applies
  the BR(ε) adoption rule to what it returns.
* :func:`batched_route_matrices` — all-sources route values of stacked
  overlays: one block-diagonal CSR Dijkstra for additive metrics, max-min
  closures for bandwidth (also the build sweep's scoring tensor).
* :func:`fill_bandwidth_residuals` — residual bottleneck matrices of one
  bandwidth overlay, by per-node closures or one avoid-one pass.
* :func:`fusable` and :func:`wave_cap` — which policies the kernel
  replicates, and how far ahead a quiet deployment may speculate.

None of them keeps state: what they compute goes back to the driver,
which hands each residual to the one step that reads it.  Every
function is bitwise identical to the per-deployment code it
stands in for (selections, block-separated Dijkstra runs and the same
elementwise operations over the same contiguous value runs — no
arithmetic reordering), which is what keeps ``batched=True`` and
``batched=False`` byte-identical; ``tests/core/test_lockstep.py`` pins
the kernel against :func:`~repro.core.best_response.best_response_local_search`
directly.
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.core.policies import BestResponsePolicy, NeighborSelectionPolicy
from repro.routing.graph import OverlayGraph
from repro.routing.widest_path import (
    CLOSURE_MAX_NODES,
    bottleneck_avoid_one,
    bottleneck_closure_fw,
    widest_path_bandwidths_multi,
)
from repro.telemetry import runtime as telemetry

#: Soft cap on the stacked node count of one block-diagonal Dijkstra call
#: (the dense distance output is ``blocks*n x blocks*n`` float64, so 4096
#: keeps a call's output near 128 MB).
_DIJKSTRA_BLOCK_NODES = 4096

#: Wave size from which one divide-and-conquer avoid-one pass (all
#: residual matrices of the overlay version at once) beats closing the
#: requested residuals one by one.
_AVOID_ONE_MIN_WAVE = 8


def wave_cap(maximize: bool) -> int:
    """Longest speculative wave a quiet streak may grow to.

    Linear growth bets on a quiet streak continuing roughly as long as it
    has lasted; a re-wire throws the rest of the wave away, so
    speculation is capped harder for the bandwidth closures (a wasted
    member costs a full n^3 closure) than for the additive Dijkstra
    blocks.
    """
    return 8 if maximize else 16


def fusable(policy: NeighborSelectionPolicy, k: int, hops: int) -> bool:
    """Whether :func:`fused_best_response` replicates ``policy``'s step.

    The kernel is best_response's greedy-seeded local search; a
    deployment that would take another branch — exact enumeration on a
    small candidate pool of ``hops`` nodes, k = 0, or a policy that is
    not plain best response (HybridBR) — steps through its own evaluator
    instead.
    """
    return (
        isinstance(policy, BestResponsePolicy)
        and int(k) >= 1
        and hops > int(policy.exact_threshold)
    )


# ---------------------------------------------------------------------- #
# Stacked route-value sweeps
# ---------------------------------------------------------------------- #
def _graph_from_bandwidth_dense(adjacency: np.ndarray) -> OverlayGraph:
    """Overlay graph of a dense bottleneck adjacency (0 absent, inf diag)."""
    n = adjacency.shape[0]
    graph = OverlayGraph(n)
    offdiag = ~np.eye(n, dtype=bool)
    for u, v in zip(*np.nonzero((adjacency > 0) & offdiag)):
        graph.add_edge(int(u), int(v), float(adjacency[u, v]))
    return graph


def _block_dijkstra(stack: np.ndarray) -> np.ndarray:
    """All-sources shortest-path costs of every member of ``stack``.

    ``stack`` is a ``(members, n, n)`` tensor of additive weight matrices
    with NaN marking absent edges.  The members are packed into one
    block-diagonal CSR matrix and swept by a single csgraph Dijkstra call
    with every node as a source; since blocks are disconnected from each
    other, slicing the diagonal blocks of the result reproduces exactly
    the per-member ``shortest_path_costs_multi`` matrices (unreachable
    stays ``+inf``).  Zero weights get the same ``1e-12`` nudge as
    :func:`repro.routing.shortest_path._to_csr`.
    """
    members, n, _ = stack.shape
    mask = ~np.isnan(stack)
    counts = mask.sum(axis=2).reshape(members * n)
    indptr = np.zeros(members * n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    member_idx, _row_idx, col_idx = np.nonzero(mask)
    data = stack[mask]
    data = np.where(data > 0, data, 1e-12)
    indices = member_idx * n + col_idx
    big = csr_matrix(
        (data, indices.astype(np.int64), indptr),
        shape=(members * n, members * n),
    )
    dist = _csgraph_dijkstra(big, directed=True, indices=np.arange(members * n))
    dist = np.asarray(dist, dtype=float).reshape(members, n, members, n)
    member_idx = np.arange(members)
    # Diagonal blocks only: member m's sources against member m's columns.
    return dist[member_idx, :, member_idx, :]


def batched_route_matrices(
    stack: np.ndarray, maximize: bool, *, block_nodes: int = _DIJKSTRA_BLOCK_NODES
) -> np.ndarray:
    """Route-value matrices of stacked deployments, chunked by memory.

    Additive metrics go through the block-diagonal Dijkstra; bandwidth
    through the max-min closure tensor (NaN-marked absences become the
    closure's 0/``+inf`` conventions).  ``block_nodes`` caps the stacked
    node count per Dijkstra call (its dense distance output is quadratic
    in it); callers batching many small members per round (the lockstep
    engine batch) pass a lower cap than the sweep default.
    """
    members, n, _ = stack.shape
    telemetry.kernel_call(
        "batched_route_matrices.widest" if maximize else "batched_route_matrices.dijkstra",
        members * n,
    )
    out = np.empty_like(stack)
    if maximize:
        adjacency = np.where(np.isnan(stack), 0.0, stack)
        idx = np.arange(n)
        adjacency[:, idx, idx] = np.inf
        if n > CLOSURE_MAX_NODES:
            # Dense closures are O(n^3) per member; past the cutoff the
            # per-source heap search (bitwise identical) wins.
            for m in range(members):
                graph = _graph_from_bandwidth_dense(adjacency[m])
                out[m] = widest_path_bandwidths_multi(
                    graph, list(range(n)), batched=False
                )
        else:
            for m in range(members):
                out[m] = bottleneck_closure_fw(adjacency[m])
    else:
        chunk = max(1, int(block_nodes) // max(1, n))
        for start in range(0, members, chunk):
            stop = min(start + chunk, members)
            out[start:stop] = _block_dijkstra(stack[start:stop])
    return out


def fill_bandwidth_residuals(
    dense: np.ndarray,
    missing: Sequence[int],
    nodes: Sequence[int],
    hops_of: Callable[[int], np.ndarray],
) -> Dict[int, np.ndarray]:
    """Residual bottleneck matrices of one bandwidth overlay.

    ``dense`` is the overlay's announced-bandwidth matrix (NaN absent)
    and ``hops_of(node)`` the node's candidate first hops, ascending (the
    rows of its matrix).  Small waves close each ``missing`` node's
    residual adjacency directly (Floyd-Warshall pivoting); once the wave
    says the overlay is quiet (:data:`_AVOID_ONE_MIN_WAVE` requests), one
    divide-and-conquer :func:`bottleneck_avoid_one` pass yields the
    residual matrices of *every* member of ``nodes`` at once, so the
    caller holds the whole round until the next wiring change.  Both
    produce bitwise-identical slices (max-min values are selections, not
    arithmetic).

    Returns ``{node: (hops x n) matrix}`` — every ``missing`` node, or
    every member of ``nodes`` with a candidate hop.  Past
    :data:`CLOSURE_MAX_NODES` dense closures (and the ``(n, n, n)``
    avoid-one tensor) are O(n^3) in time and memory, so it returns
    nothing and each caller runs its own bit-identical per-source
    fallback.
    """
    if dense.shape[0] > CLOSURE_MAX_NODES:
        return {}
    adjacency = np.where(np.isnan(dense), 0.0, dense)
    np.fill_diagonal(adjacency, np.inf)
    if len(missing) >= _AVOID_ONE_MIN_WAVE:
        tensor = bottleneck_avoid_one(adjacency)
        return {
            node: tensor[node][rows, :]
            for node in nodes
            if len(rows := hops_of(node))
        }
    filled = {}
    for node in missing:
        residual = adjacency.copy()
        residual[node, :] = 0.0
        residual[node, node] = np.inf
        filled[node] = bottleneck_closure_fw(residual)[hops_of(node), :]
    return filled


# ---------------------------------------------------------------------- #
# The fused best-response kernel
# ---------------------------------------------------------------------- #
class Member(NamedTuple):
    """One node's re-wiring opportunity, as :func:`fused_best_response` sees it."""

    #: ``(h, n)`` residual route values from each candidate first hop.
    resid: np.ndarray
    #: The ``h`` candidate ids, ascending — first hops and destinations.
    hop_ids: np.ndarray
    #: Announced direct link weight to each hop.
    direct: np.ndarray
    #: The node's preference weight for each destination.
    prefs: np.ndarray
    #: Neighbour budget (clipped to ``h`` by the kernel).
    k: int
    #: Current neighbour ids, all in ``hop_ids`` (empty: unwired).
    incumbent: Collection[int]
    #: Local-search pass cap (``BestResponsePolicy.max_iterations``).
    max_iterations: int


def _fold_is_exact(
    via: np.ndarray,
    clamped: np.ndarray,
    prefs: np.ndarray,
    *,
    maximize: bool,
    unreachable: float,
) -> bool:
    """Whether clamping and weighting ``via`` *before* the kernel's
    selections gives the bits that doing so after each of them would.

    Every pass of the kernel selects per destination over hop rows
    (min/max), clamps unreachable values to ``unreachable``, multiplies
    by the preference and sums.  A selection commutes with a monotone
    map — ``fl(p * clamp(min(a, b))) == min(fl(p * clamp(a)), fl(p *
    clamp(b)))``, the very same float product, since min/max pick one of
    their arguments and ``x -> fl(p * x)`` is monotone for ``p >= 0`` —
    so the question is whether the clamp is monotone, i.e. whether the
    disconnection value is no better than any reachable one:

    * minimising: every finite via is ``<= unreachable``;
    * maximising: no via is ``+inf`` (the clamp sends it *down* to
      ``unreachable``) and ``unreachable <=`` every positive finite via.

    That is not a given.  A failed link is *announced* at the
    disconnection cost — a finite weight — so routes over it sum past
    it, and an infinite direct bandwidth makes a via ``+inf``.
    ``clamped`` is ``via`` with the clamp applied, which turns the check
    into one reduction.
    """
    if maximize:
        monotone = clamped.min() >= unreachable and via.max() < np.inf
    else:
        monotone = clamped.max() <= unreachable
    return bool(monotone and prefs.min() >= 0)


def fused_best_response(
    members: Sequence[Member], *, maximize: bool, unreachable: float
) -> Tuple[np.ndarray, List[List[int]], np.ndarray]:
    """Greedy-seeded local-search best responses of a group, in broadcasts.

    Returns ``(existing_cost, chosen, candidate_cost)`` in ``members``
    order: the objective of each member's incumbent wiring, the neighbour
    ids the search settled on (in slot order), and their objective.

    All members share the objective convention (``maximize`` and the
    disconnection value ``unreachable`` — the clamps use one value for
    the whole group), so their ``(hops x destinations)`` via matrices
    stack into one ``(members x hops+1 x destinations)`` tensor and every
    kernel of the sequential step — scoring the current wiring, each
    greedy-seed pass, each swap pass — becomes a single broadcast over
    it.  Widths may differ per member (churned-down engines): member
    ``d`` occupies the compact prefix of ``h_arr[d]`` hop rows and
    destination columns; its padded hop lanes are pre-masked like
    already-taken candidates (row ``H`` is the all-identity row short
    wirings point at), and every preference-weighted destination sum reduces over the member's own
    prefix only.  Objective values are therefore computed over exactly
    the arrays a per-member :class:`~repro.core.best_response.WiringEvaluator`
    would reduce, and resolve through the same argmin/argsort lanes, so
    costs and tie-breaks are bitwise those of
    :func:`~repro.core.best_response.best_response_local_search`.

    The evaluator clamps and preference-weights after every selection;
    the kernel does both to the tensor once, ``W[c, j] = fl(p_j *
    clamp(via[c, j]))``, and runs each pass as a selection plus a
    destination sum over ``W`` — two array passes instead of three or
    four.  That is the same float product per cell whenever the clamp is
    monotone and ``p >= 0`` (selections commute with monotone maps);
    :func:`_fold_is_exact` checks exactly that, and a group failing it
    (a link announced at the disconnection cost, an infinite direct
    bandwidth) clamps and weights per pass, as the evaluator does.
    """
    D = len(members)
    combine = np.maximum if maximize else np.minimum
    identity = -np.inf if maximize else np.inf
    sentinel = identity

    # Largest budgets first: the members still seeding at greedy step s
    # then form a prefix, so per-pass kernels slice views instead of
    # masking lanes.  Members are independent, so the order is free.
    order = sorted(
        range(D), key=lambda i: -min(int(members[i].k), len(members[i].hop_ids))
    )
    group = [members[i] for i in order]
    widths = [len(m.hop_ids) for m in group]
    H = max(widths)
    uniform_width = min(widths) == H
    h_arr = np.array(widths, dtype=int)
    # Everything outside a member's compact block is padding.  Row H is
    # the all-identity row short wirings point at.  Padded hop rows are
    # never selected (pre-masked as taken below) and padded destination
    # columns never summed (every destination reduction stops at the
    # member's prefix), but both flow through the preference multiplies,
    # so they carry 0 — identity-valued (infinite) cells would turn the
    # zero preferences into NaNs and noisy warnings.
    via = np.zeros((D, H + 1, H))
    prefs = np.zeros((D, H))
    for d, (m, h) in enumerate(zip(group, widths)):
        via[d, H, :h] = identity
        prefs[d, :h] = m.prefs
        if maximize:
            np.minimum(m.direct[:, None], m.resid[:, m.hop_ids], out=via[d, :h, :h])
        else:
            np.add(m.direct[:, None], m.resid[:, m.hop_ids], out=via[d, :h, :h])
    ks = np.minimum([int(m.k) for m in group], h_arr)
    d_idx = np.arange(D)

    def reachable(values: np.ndarray) -> np.ndarray:
        finite = np.isfinite(values)
        return finite & (values > 0) if maximize else finite

    # --- fold clamp + preferences into the tensor, once ---------------- #
    # weighted[c, j] = fl(p_j * clamp(via[c, j])): clamp first, then
    # multiply — a zero preference over an unreachable cell is 0, not
    # ``0 * inf``.  When the fold is exact (see :func:`_fold_is_exact`)
    # every pass below selects over ``weighted`` directly and skips its
    # own clamp and multiply; a group failing the check keeps the raw
    # tensor and clamps and weights per pass.
    weighted = np.where(reachable(via), via, unreachable)
    folded = _fold_is_exact(
        via, weighted, prefs, maximize=maximize, unreachable=unreachable
    )
    if folded:
        weighted *= prefs[:, None, :]
        via = weighted
        # p * clamp(identity): what a reduction over no row at all reads.
        start = prefs * unreachable
    else:
        start = np.full((D, H), identity)

    def dest_sums(values: np.ndarray) -> np.ndarray:
        """Per-member destination sums over the compact prefixes.

        ``values`` has destinations on the last axis (padded to the
        group width); member ``d`` sums its first ``h_arr[d]`` columns —
        the very same contiguous value runs its evaluator would reduce,
        so the pairwise summations agree bit for bit (a fused sum over
        the zero-padded width would regroup the additions).
        """
        if uniform_width:
            # Every member's compact prefix is the full width: one fused
            # reduction, row-wise identical to the per-slice sums below.
            return values.sum(axis=-1)
        out = np.empty(values.shape[:-1])
        for d in range(values.shape[0]):  # a prefix of the sorted group
            out[d] = values[d, ..., : h_arr[d]].sum(axis=-1)
        return out

    def weigh_(values: np.ndarray, weights: np.ndarray) -> None:
        """Clamp and preference-weight selected values, in place — unless
        the fold already did both to the tensor they were selected from."""
        if not folded:
            values[~reachable(values)] = unreachable
            values *= weights

    def objective(rows: np.ndarray) -> np.ndarray:
        """Objective of one padded wiring per member (rows (D, R))."""
        vals = via[d_idx[:, None], rows]
        best = vals.max(axis=1) if maximize else vals.min(axis=1)
        weigh_(best, prefs)
        return dest_sums(best)

    # --- score each member's current wiring --------------------------- #
    incumbent_rows = [np.searchsorted(m.hop_ids, sorted(m.incumbent)) for m in group]
    width = max(1, max(len(rows) for rows in incumbent_rows))
    existing = np.full((D, width), H, dtype=int)
    for d, rows in enumerate(incumbent_rows):
        existing[d, : len(rows)] = rows
    existing_cost = objective(existing)
    for d, rows in enumerate(incumbent_rows):
        if not len(rows):
            # An unwired node is charged the evaluator's empty cost, which
            # multiplies the *summed* preferences by the disconnection
            # value — not bitwise the same as the padded reduction above.
            existing_cost[d] = float(np.sum(prefs[d, : h_arr[d]]) * unreachable)

    # --- greedy marginal-gain seeding --------------------------------- #
    k_max = int(ks.max())
    running = start.copy()
    # Padded hop lanes start out taken: their scores read as the
    # sentinel, so the argmin/argmax lanes resolve over each member's
    # real candidates exactly as its evaluator's.
    taken = np.arange(H)[None, :] >= h_arr[:, None]
    chosen = np.full((D, k_max), H, dtype=int)
    for step in range(k_max):
        live = int(np.count_nonzero(step < ks))  # a prefix: ks sorted desc
        trial = combine(running[:live, None, :], via[:live, :H, :])
        weigh_(trial, prefs[:live, None, :])
        costs = dest_sums(trial)
        costs[taken[:live]] = sentinel
        pos = costs.argmax(axis=1) if maximize else costs.argmin(axis=1)
        sel = d_idx[:live]
        chosen[sel, step] = pos
        taken[sel, pos] = True
        running[:live] = combine(running[:live], via[sel, pos])
    current_cost = objective(chosen)

    # --- single-swap local search ------------------------------------- #
    # Members converge at different speeds, so each pass gathers the
    # still-active lanes into compact tensors: per-member values are
    # untouched by the compression (every kernel below is member-wise
    # independent), so decisions stay bitwise identical while late
    # passes stop paying for the members that already stopped.
    current_rows = chosen
    occupied = taken
    caps = np.array([int(m.max_iterations) for m in group])
    active = caps > 0
    slot_range = np.arange(k_max)
    iteration = 0
    while active.any():
        act = np.flatnonzero(active)
        A = len(act)
        a_idx = np.arange(A)
        via_a = via[act]
        cur_vals = via_a[a_idx[:, None], current_rows[act]]
        if k_max == 1:
            loo = start[act][:, None, :]
        else:
            # Leave-one-out reduction via the top-2 trick: dropping slot o
            # changes the column reduction only where o was the extreme.
            order_a = np.argsort(cur_vals, axis=1)
            ext_slot = order_a[:, -1, :] if maximize else order_a[:, 0, :]
            second_slot = order_a[:, -2, :] if maximize else order_a[:, 1, :]
            ext = np.take_along_axis(cur_vals, ext_slot[:, None, :], axis=1)[:, 0, :]
            second = np.take_along_axis(
                cur_vals, second_slot[:, None, :], axis=1
            )[:, 0, :]
            loo = np.where(
                slot_range[None, :, None] == ext_slot[:, None, :],
                second[:, None, :],
                ext[:, None, :],
            )
        trial = combine(loo[:, :, None, :], via_a[:, None, :H, :])
        weigh_(trial, prefs[act][:, None, None, :])
        swap = np.empty((A, k_max, H))
        if uniform_width:
            np.sum(trial, axis=3, out=swap)
        else:
            for a, d in enumerate(act):
                swap[a] = trial[a, :, :, : h_arr[d]].sum(axis=-1)
        swap = np.where(occupied[act][:, None, :], sentinel, swap)
        if k_max > 1:
            swap = np.where(
                slot_range[None, :, None] >= ks[act][:, None, None], sentinel, swap
            )
        flat = swap.reshape(A, k_max * H)
        pos = flat.argmax(axis=1) if maximize else flat.argmin(axis=1)
        val = flat[a_idx, pos]
        improved = (val > current_cost[act]) if maximize else (val < current_cost[act])
        sel = act[improved]
        if len(sel):
            out_slot = pos[improved] // H
            in_pos = pos[improved] % H
            occupied[sel, current_rows[sel, out_slot]] = False
            occupied[sel, in_pos] = True
            current_rows[sel, out_slot] = in_pos
            current_cost[sel] = val[improved]
        iteration += 1
        active[:] = False
        active[sel] = iteration < caps[sel]

    # --- back to the caller's order ----------------------------------- #
    inverse = np.argsort(order)
    return (
        existing_cost[inverse],
        [group[d].hop_ids[current_rows[d, : ks[d]]].tolist() for d in inverse],
        current_cost[inverse],
    )


__all__ = [
    "Member",
    "batched_route_matrices",
    "fill_bandwidth_residuals",
    "fused_best_response",
    "fusable",
    "wave_cap",
]
