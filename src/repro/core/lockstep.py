"""The stateless sweeps of the lockstep driver.

The lockstep driver of :mod:`repro.core.engine_batch` advances many
*independent* deployments one re-wiring opportunity at a time — the
epoch-driven engines of :class:`~repro.core.engine_batch.EngineBatch`
and the build-time best-response rounds of
:class:`~repro.core.deployment_batch.DeploymentBatch` alike.  The
re-wiring kernel it calls, :func:`~repro.core.best_response.fused_best_response`,
lives with the evaluator in :mod:`repro.core.best_response` (this module
imports the policies, which import that one).  The rest is here:

* :func:`batched_route_matrices` — all-sources route values of stacked
  overlays: one block-diagonal CSR Dijkstra for additive metrics, max-min
  closures for bandwidth.  It sweeps a round's residual graphs (each
  overlay with its stepping node's row cleared), an epoch's scoring and
  the build sweep's scoring tensor.
* :func:`fusable` — which policies the kernel replicates.

Neither keeps state: what they compute goes back to the driver, which
hands each residual to the one step that reads it.  Every sweep is
bitwise identical to the per-deployment code it stands in for (selections and block-separated Dijkstra runs, no arithmetic
reordering), which is what keeps ``batched=True`` and
``batched=False`` byte-identical.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.core.policies import BestResponsePolicy, NeighborSelectionPolicy
from repro.routing.graph import OverlayGraph
from repro.routing.widest_path import (
    CLOSURE_MAX_NODES,
    bottleneck_closure_fw,
    widest_path_bandwidths_multi,
)
from repro.telemetry import runtime as telemetry

#: Soft cap on the stacked node count of one block-diagonal Dijkstra call
#: (the dense distance output is ``blocks*n x blocks*n`` float64, so 4096
#: keeps a call's output near 128 MB).
_DIJKSTRA_BLOCK_NODES = 4096


def fusable(policy: NeighborSelectionPolicy, k: int, hops: int) -> bool:
    """Whether :func:`~repro.core.best_response.fused_best_response`
    replicates ``policy``'s step.

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
            out[:] = bottleneck_closure_fw(adjacency)
    else:
        chunk = max(1, int(block_nodes) // max(1, n))
        for start in range(0, members, chunk):
            stop = min(start + chunk, members)
            out[start:stop] = _block_dijkstra(stack[start:stop])
    return out


__all__ = [
    "batched_route_matrices",
    "fusable",
]
