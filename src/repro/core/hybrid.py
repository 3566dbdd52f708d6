"""HybridBR: selfish wiring plus a donated connectivity backbone.

HybridBR (Section 3.3) splits a node's ``k`` links into ``k1`` selfish
links chosen by Best-Response and ``k2 = k - k1`` links donated to the
system's connectivity backbone (``k2 / 2`` bidirectional cycles; see
:mod:`repro.core.backbone`).  The BR computation then treats the donated
links as fixed ("the decision variables set to 1 for the nodes that
receive high-maintenance links") and optimises only the remaining budget.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

import numpy as np

from repro.core.backbone import backbone_links
from repro.core.best_response import WiringEvaluator, best_response
from repro.core.cost import Metric
from repro.core.policies import BestResponsePolicy, NeighborSelectionPolicy
from repro.core.wiring import GlobalWiring, Wiring
from repro.routing.graph import OverlayGraph
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import ValidationError


class HybridBRPolicy(NeighborSelectionPolicy):
    """Best-Response over ``k1`` links with ``k2`` links donated.

    Parameters
    ----------
    k2:
        Number of donated (backbone) links per node; must be even and
        smaller than the total budget ``k`` passed to :meth:`select`.
    epsilon:
        BR(ε) re-wiring threshold applied to the selfish links.
    exact_threshold, max_iterations:
        Passed through to the underlying best-response computation.
    """

    name = "hybrid-br"

    def __init__(
        self,
        k2: int = 2,
        *,
        epsilon: float = 0.0,
        exact_threshold: int = 12,
        max_iterations: int = 100,
    ):
        if k2 < 0 or k2 % 2 != 0:
            raise ValidationError("k2 must be a non-negative even integer")
        self.k2 = int(k2)
        self.epsilon = float(epsilon)
        self.exact_threshold = int(exact_threshold)
        self.max_iterations = int(max_iterations)
        self._br = BestResponsePolicy(
            epsilon=epsilon,
            exact_threshold=exact_threshold,
            max_iterations=max_iterations,
        )

    def donated_links_for(
        self, node: int, active_nodes: Sequence[int]
    ) -> Set[int]:
        """Backbone neighbours donated by ``node`` given current membership."""
        links = backbone_links(active_nodes, self.k2)
        return set(links.get(int(node), set()))

    def select(
        self,
        node: int,
        k: int,
        metric: Metric,
        residual_graph: OverlayGraph,
        *,
        candidates: Optional[Sequence[int]] = None,
        rng: SeedLike = None,
        preferences: Optional[np.ndarray] = None,
        destinations: Optional[Sequence[int]] = None,
        evaluator: Optional[WiringEvaluator] = None,
    ) -> Set[int]:
        rng = as_generator(rng)
        n = metric.size
        if candidates is None:
            candidates = [j for j in range(n) if j != node]
        active = sorted(set(candidates) | {node})
        donated = self.donated_links_for(node, active)
        # Donated links consume part of the budget; never exceed k total.
        donated = set(sorted(donated)[: min(len(donated), k)])
        k1 = max(0, k - len(donated))
        # A caller-supplied evaluator lacks the donated links as `required`,
        # so it cannot be reused directly — but its route cache can: the
        # hop set (candidates + donated) is identical, so the residual
        # sweep computed for the node's cost evaluation is shared.
        route_cache = evaluator.route_cache if evaluator is not None else None
        hybrid_evaluator = WiringEvaluator(
            node=node,
            metric=metric,
            residual_graph=residual_graph,
            candidates=[c for c in candidates if c not in donated],
            preferences=preferences,
            destinations=destinations,
            required=frozenset(donated),
            route_cache=route_cache,
        )
        result = best_response(
            hybrid_evaluator,
            k1,
            exact_threshold=self.exact_threshold,
            rng=rng,
            max_iterations=self.max_iterations,
        )
        return set(result.neighbors)

    def select_wiring(
        self,
        node: int,
        k: int,
        metric: Metric,
        residual_graph: OverlayGraph,
        *,
        candidates: Optional[Sequence[int]] = None,
        rng: SeedLike = None,
        preferences: Optional[np.ndarray] = None,
        destinations: Optional[Sequence[int]] = None,
        evaluator: Optional[WiringEvaluator] = None,
    ) -> Wiring:
        """Like :meth:`select` but returns a :class:`Wiring` with the donated
        links marked, which the engine uses for aggressive vs lazy monitoring."""
        n = metric.size
        if candidates is None:
            candidates = [j for j in range(n) if j != node]
        active = sorted(set(candidates) | {node})
        donated = self.donated_links_for(node, active)
        donated = set(sorted(donated)[: min(len(donated), k)])
        chosen = self.select(
            node,
            k,
            metric,
            residual_graph,
            candidates=candidates,
            rng=rng,
            preferences=preferences,
            destinations=destinations,
            evaluator=evaluator,
        )
        return Wiring.of(node, chosen, donated & chosen)


def build_hybrid_overlay(
    metric: Metric,
    k: int,
    k2: int = 2,
    *,
    nodes: Optional[Sequence[int]] = None,
    preferences: Optional[np.ndarray] = None,
    rng: SeedLike = None,
    rounds: int = 4,
) -> GlobalWiring:
    """Build a HybridBR overlay by best-response dynamics over the k1 links.

    The donated backbone is installed first (it depends only on the
    membership), then nodes iteratively best-respond with the remaining
    budget.
    """
    rng = as_generator(rng)
    n = metric.size
    node_list = sorted(nodes) if nodes is not None else list(range(n))
    policy = HybridBRPolicy(k2=k2)
    wiring = GlobalWiring(n)

    # Install the backbone plus a random selfish seed.
    donated_map = backbone_links(node_list, k2)
    for node in node_list:
        donated = set(sorted(donated_map[node])[: min(k, len(donated_map[node]))])
        weights = {v: metric.link_weight(node, v) for v in donated}
        wiring.set_wiring(Wiring.of(node, donated, donated), weights)

    order = list(node_list)
    for _round in range(int(rounds)):
        rng.shuffle(order)
        changed = 0
        for node in order:
            residual = wiring.residual_graph(node, active=node_list)
            new_wiring = policy.select_wiring(
                node,
                k,
                metric,
                residual,
                candidates=[c for c in node_list if c != node],
                rng=rng,
                preferences=preferences,
                destinations=[d for d in node_list if d != node],
            )
            current = wiring.wiring_of(node)
            if current is None or set(current.neighbors) != set(new_wiring.neighbors):
                weights = {v: metric.link_weight(node, v) for v in new_wiring.neighbors}
                wiring.set_wiring(new_wiring, weights)
                changed += 1
        if changed == 0:
            break
    return wiring
