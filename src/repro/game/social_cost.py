"""Social cost and comparisons against socially optimal wirings.

The SNS literature cited by the paper shows that, for uniform preferences
and link weights, pure Nash equilibria exist and their social cost is
within a constant factor of the social optimum.  These helpers let the
library's tests quantify that gap empirically:
the social cost of a wiring, a greedy approximation of the social optimum
(exhaustive search is exponential), and the resulting empirical
price-of-anarchy style ratio.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.best_response import WiringEvaluator, best_response
from repro.core.cost import Metric, uniform_preferences
from repro.core.wiring import GlobalWiring, Wiring
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import ValidationError


def social_cost(
    metric: Metric,
    wiring: GlobalWiring,
    preferences: Optional[np.ndarray] = None,
) -> float:
    """Sum of all players' costs under ``wiring``."""
    return metric.social_cost(wiring.to_graph(), preferences)


def social_optimum_greedy(
    metric: Metric,
    k: int,
    *,
    preferences: Optional[np.ndarray] = None,
    rounds: int = 3,
    rng: SeedLike = None,
) -> GlobalWiring:
    """Greedy approximation of the socially optimal degree-k wiring.

    Nodes are visited round-robin; each visit the node adopts the wiring
    that minimises the *social* cost (not its own), holding everyone else
    fixed.  This is a coordinate-descent heuristic — adequate as a
    baseline for price-of-anarchy style comparisons, not an exact optimum.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    rng = as_generator(rng)
    n = metric.size
    prefs = preferences if preferences is not None else uniform_preferences(n)

    # Start from everyone best-responding selfishly (a good initial point).
    wiring = GlobalWiring(n)
    for node in range(n):
        residual = wiring.to_graph()
        evaluator = WiringEvaluator(
            node=node, metric=metric, residual_graph=residual, preferences=prefs
        )
        result = best_response(evaluator, k, rng=rng)
        weights = {v: metric.link_weight(node, v) for v in result.neighbors}
        wiring.set_wiring(result.as_wiring(), weights)

    for _ in range(int(rounds)):
        improved = False
        for node in range(n):
            current = wiring.wiring_of(node)
            current_social = social_cost(metric, wiring, prefs)
            best_social = current_social
            best_neighbors = set(current.neighbors)
            # Try single-swap perturbations of this node's wiring and keep
            # the one that lowers (or raises, for bandwidth) social cost.
            others = [j for j in range(n) if j != node]
            for out_neighbor in list(current.neighbors):
                for in_neighbor in others:
                    if in_neighbor in current.neighbors:
                        continue
                    trial_neighbors = set(current.neighbors)
                    trial_neighbors.discard(out_neighbor)
                    trial_neighbors.add(in_neighbor)
                    trial = wiring.copy()
                    weights = {
                        v: metric.link_weight(node, v) for v in trial_neighbors
                    }
                    trial.set_wiring(Wiring.of(node, trial_neighbors), weights)
                    value = social_cost(metric, trial, prefs)
                    if metric.better(value, best_social):
                        best_social = value
                        best_neighbors = trial_neighbors
            if best_neighbors != set(current.neighbors):
                weights = {v: metric.link_weight(node, v) for v in best_neighbors}
                wiring.set_wiring(Wiring.of(node, best_neighbors), weights)
                improved = True
        if not improved:
            break
    return wiring


def price_of_anarchy_bound(
    metric: Metric,
    equilibrium: GlobalWiring,
    optimum: GlobalWiring,
    preferences: Optional[np.ndarray] = None,
) -> float:
    """Empirical social-cost ratio equilibrium / optimum.

    For minimised metrics a value of 1.0 means the equilibrium is socially
    optimal; larger values quantify the inefficiency of selfish wiring.
    For maximised metrics the reciprocal convention is used so that >= 1
    still means "equilibrium no better than optimum".
    """
    eq = social_cost(metric, equilibrium, preferences)
    opt = social_cost(metric, optimum, preferences)
    if metric.maximize:
        if eq == 0:
            return float("inf")
        return opt / eq
    if opt == 0:
        return float("inf") if eq > 0 else 1.0
    return eq / opt
