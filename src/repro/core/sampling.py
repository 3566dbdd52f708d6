"""Scalability via sampling (Section 5).

For very large overlays, computing a best response over the full residual
graph is too expensive (local search is a high-order polynomial in ``n``).
EGOIST therefore scales the *input* down: a newcomer computes its BR over a
sample of ``m`` nodes only.

Two samplers are provided:

* **Unbiased random sampling** — ``m`` uniform random nodes.
* **Topology-based biased random sampling (BRtp)** — draw ``m' > m``
  random candidates, rank each candidate ``v_j`` by

      ``b_ij = |F(v_j)| / sum_{u in F(v_j)} d(v_i, u)``

  where ``F(v_j)`` is ``v_j``'s neighbourhood of radius ``r`` in the
  residual overlay graph, and keep the ``m`` highest-ranked candidates.
  The intuition: a good neighbour has a large neighbourhood whose members
  are close to the newcomer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.core.best_response import BestResponseResult, WiringEvaluator, best_response
from repro.core.cost import Metric
from repro.routing.graph import OverlayGraph
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import ValidationError


def random_sample(
    candidates: Sequence[int], m: int, *, rng: SeedLike = None
) -> List[int]:
    """Unbiased random sample of ``m`` distinct candidates."""
    rng = as_generator(rng)
    pool = list(candidates)
    m = min(m, len(pool))
    if m <= 0:
        return []
    idx = rng.choice(len(pool), size=m, replace=False)
    return [pool[i] for i in np.atleast_1d(idx)]


def neighborhood(
    graph: OverlayGraph, node: int, radius: int
) -> Set[int]:
    """``F(v_j)``: distinct nodes reachable from ``node`` within ``radius`` hops.

    The node itself is excluded (the paper counts reachable *other* nodes).
    """
    if radius < 0:
        raise ValidationError("radius must be non-negative")
    frontier = {node}
    seen = {node}
    for _ in range(radius):
        next_frontier: Set[int] = set()
        for u in frontier:
            for v in graph.successors(u):
                if v not in seen:
                    seen.add(v)
                    next_frontier.add(v)
        frontier = next_frontier
        if not frontier:
            break
    seen.discard(node)
    return seen


def bias_rank(
    newcomer: int,
    candidate: int,
    metric: Metric,
    residual_graph: OverlayGraph,
    radius: int,
) -> float:
    """The ranking function ``b_ij`` of topology-biased sampling.

    Larger is better.  Distances from the newcomer to neighbourhood members
    use the metric's direct-link estimates (the newcomer has no overlay
    routes yet).  An empty neighbourhood ranks zero.
    """
    members = neighborhood(residual_graph, candidate, radius)
    return _bias_rank_from_row(
        metric.link_weight_row(newcomer), members, maximize=metric.maximize
    )


def _bias_rank_from_row(
    weight_row: np.ndarray, members: Set[int], *, maximize: bool
) -> float:
    """``b_ij`` from a precomputed direct-weight row (vectorised sum)."""
    if not members:
        return 0.0
    total = float(weight_row[np.fromiter(members, dtype=int, count=len(members))].sum())
    if maximize:
        # Bandwidth analogue: prefer candidates whose neighbourhood offers
        # high direct bandwidth from the newcomer.
        return total
    if total <= 0:
        return float("inf")
    return len(members) / total


def topology_biased_sample(
    newcomer: int,
    metric: Metric,
    residual_graph: OverlayGraph,
    m: int,
    *,
    oversample: int = 3,
    radius: int = 2,
    candidates: Optional[Sequence[int]] = None,
    rng: SeedLike = None,
) -> List[int]:
    """Topology-based biased random sampling (BRtp).

    Draw ``oversample * m`` random candidates (``m'`` in the paper), rank
    them by :func:`bias_rank`, and keep the top ``m``.
    """
    rng = as_generator(rng)
    if candidates is None:
        candidates = [j for j in range(metric.size) if j != newcomer]
    m = min(m, len(candidates))
    if m <= 0:
        return []
    m_prime = min(len(candidates), max(m, int(oversample) * m))
    pool = random_sample(candidates, m_prime, rng=rng)
    # One direct-weight row lookup shared across every candidate's ranking
    # instead of a link_weight call per neighbourhood member.
    weight_row = metric.link_weight_row(newcomer)
    ranked = sorted(
        pool,
        key=lambda c: _bias_rank_from_row(
            weight_row,
            neighborhood(residual_graph, c, radius),
            maximize=metric.maximize,
        ),
        reverse=True,
    )
    return ranked[:m]


@dataclass(frozen=True)
class SampledJoinResult:
    """Outcome of a newcomer joining via sampling."""

    newcomer: int
    sample: tuple
    neighbors: frozenset
    sampled_cost: float
    method: str


def sampled_best_response(
    newcomer: int,
    metric: Metric,
    residual_graph: OverlayGraph,
    k: int,
    sample: Sequence[int],
    *,
    preferences: Optional[np.ndarray] = None,
    max_iterations: int = 100,
) -> SampledJoinResult:
    """Compute a newcomer's BR restricted to the sampled nodes.

    Both the candidate neighbours and the destinations entering the
    objective are limited to the sample, mirroring the paper's description
    ("limit the input to the parts of the distance function that involve
    pairs in the chosen sample").
    """
    sample = [int(s) for s in sample if int(s) != newcomer]
    if not sample:
        raise ValidationError("sample must contain at least one node")
    evaluator = WiringEvaluator(
        node=newcomer,
        metric=metric,
        residual_graph=residual_graph,
        candidates=sample,
        preferences=preferences,
        destinations=sample,
    )
    result = best_response(evaluator, k, max_iterations=max_iterations)
    return SampledJoinResult(
        newcomer=newcomer,
        sample=tuple(sample),
        neighbors=frozenset(result.neighbors),
        sampled_cost=result.cost,
        method="sampled-" + result.method,
    )


def sampling_message_cost(m_prime: int, n: int, k: int) -> float:
    """Messages needed to query ``m'`` pseudorandom nodes via random walks.

    The paper cites ``O(m' log n / log k)`` messages on a k-regular
    expander; this helper returns that estimate (used in overhead
    accounting and scalability discussion).
    """
    if m_prime < 0 or n < 2 or k < 2:
        raise ValidationError("need m' >= 0, n >= 2, k >= 2")
    return float(m_prime) * np.log(n) / np.log(k)
