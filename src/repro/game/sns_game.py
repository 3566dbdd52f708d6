"""The Selfish Neighbor Selection game: instances and equilibria.

Definitions follow Section 2.1 of the paper: a game instance is a node
set, a link-weight (distance) function, per-node neighbour budgets ``k``,
and preference weights.  Strategies are wirings; a global wiring is a
(pure) Nash equilibrium when no node can lower its cost by unilaterally
re-wiring.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.best_response import WiringEvaluator, best_response
from repro.core.cost import Metric, uniform_preferences
from repro.core.wiring import GlobalWiring
from repro.util.validation import ValidationError


class SNSGame:
    """An instance of the SNS game.

    Parameters
    ----------
    metric:
        The link-weight function and objective (delay, load, bandwidth).
    k:
        Per-node neighbour budget (uniform, as in the paper).
    preferences:
        Preference matrix; defaults to uniform.
    """

    def __init__(
        self,
        metric: Metric,
        k: int,
        *,
        preferences: Optional[np.ndarray] = None,
    ):
        if k < 1:
            raise ValidationError("k must be >= 1")
        if k > metric.size - 1:
            raise ValidationError("k cannot exceed n - 1")
        self.metric = metric
        self.k = int(k)
        self.n = metric.size
        self.preferences = (
            preferences if preferences is not None else uniform_preferences(self.n)
        )

    def player_best_response(self, wiring: GlobalWiring, node: int):
        """Best response of ``node`` to everyone else's wiring."""
        residual = wiring.residual_graph(node)
        evaluator = WiringEvaluator(
            node=node,
            metric=self.metric,
            residual_graph=residual,
            preferences=self.preferences,
        )
        return evaluator, best_response(evaluator, self.k)


def is_nash_equilibrium(
    game: SNSGame,
    wiring: GlobalWiring,
    *,
    tolerance: float = 1e-9,
) -> bool:
    """True if no player can improve its cost by more than ``tolerance``.

    The check uses the same best-response machinery as the system itself
    (exact for small instances, local search otherwise), so for large
    instances it certifies an *approximate* equilibrium.
    """
    for node in range(game.n):
        evaluator, result = game.player_best_response(wiring, node)
        current = wiring.wiring_of(node)
        current_cost = evaluator.evaluate(
            current.neighbors if current is not None else ()
        )
        if game.metric.maximize:
            if result.cost > current_cost * (1.0 + tolerance) + tolerance:
                return False
        else:
            if result.cost < current_cost * (1.0 - tolerance) - tolerance:
                return False
    return True
