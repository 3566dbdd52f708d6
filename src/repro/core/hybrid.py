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
from repro.core.wiring import Wiring
from repro.routing.graph import OverlayGraph
from repro.util.rng import SeedLike
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
        n = metric.size
        if candidates is None:
            candidates = [j for j in range(n) if j != node]
        active = sorted(set(candidates) | {node})
        donated = self.donated_links_for(node, active)
        # Donated links consume part of the budget; never exceed k total.
        donated = set(sorted(donated)[: min(len(donated), k)])
        k1 = max(0, k - len(donated))
        # A caller-supplied evaluator lacks the donated links as `required`,
        # so it cannot be reused directly — but its residual matrix can:
        # the hop set (candidates + donated) is identical, so the sweep
        # computed for the node's cost evaluation is shared.
        residual_values = evaluator.residual_values if evaluator is not None else None
        hybrid_evaluator = WiringEvaluator(
            node=node,
            metric=metric,
            residual_graph=residual_graph,
            candidates=[c for c in candidates if c not in donated],
            preferences=preferences,
            destinations=destinations,
            required=frozenset(donated),
            residual_values=residual_values,
        )
        result = best_response(
            hybrid_evaluator,
            k1,
            exact_threshold=self.exact_threshold,
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
            preferences=preferences,
            destinations=destinations,
            evaluator=evaluator,
        )
        return Wiring.of(node, chosen, donated & chosen)

