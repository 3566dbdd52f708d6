"""Per-node state and re-wiring behaviour.

An :class:`EgoistNode` owns one overlay node's neighbour-selection policy
and its current wiring.  The engine drives nodes by offering them a
chance to re-wire once per wiring epoch (the paper's delayed reaction to
a dropped link), and the node decides — per its policy and its BR(ε)
threshold — whether to adopt a new wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Set

import numpy as np

from repro.core.best_response import WiringEvaluator, should_rewire
from repro.core.cost import Metric
from repro.core.hybrid import HybridBRPolicy
from repro.core.policies import BestResponsePolicy, NeighborSelectionPolicy
from repro.core.wiring import Wiring
from repro.routing.graph import OverlayGraph
from repro.util.rng import SeedLike, as_generator


@dataclass
class RewireDecision:
    """What a node decided during one re-wiring opportunity."""

    node: int
    rewired: bool
    old_neighbors: frozenset
    new_neighbors: frozenset
    old_cost: float
    new_cost: float


class EgoistNode:
    """One overlay node: policy, wiring, and re-wiring behaviour.

    Parameters
    ----------
    node_id:
        The node's identifier (0-based).
    policy:
        Its neighbour-selection policy.
    k:
        Its neighbour budget.
    epsilon:
        BR(ε) threshold for adopting a new wiring (0 = adopt any strict
        improvement; only meaningful for cost-driven policies).
    seed:
        Per-node randomness.
    """

    def __init__(
        self,
        node_id: int,
        policy: NeighborSelectionPolicy,
        k: int,
        *,
        epsilon: float = 0.0,
        seed: SeedLike = None,
    ):
        self.node_id = int(node_id)
        self.policy = policy
        self.k = int(k)
        self.epsilon = float(epsilon)
        self.rng = as_generator(seed)
        self.wiring: Optional[Wiring] = None
        self.online: bool = True
        self.rewire_count: int = 0

    # ------------------------------------------------------------------ #
    # State transitions
    # ------------------------------------------------------------------ #
    def go_offline(self) -> None:
        """The node churns OFF: it drops its wiring and all participation."""
        self.online = False
        self.wiring = None

    def go_online(self) -> None:
        """The node churns back ON (it will wire at its next opportunity)."""
        self.online = True

    def drop_neighbors(self, departed: Set[int]) -> bool:
        """Remove departed nodes from the current wiring.

        Returns True if the wiring lost at least one link (the engine then
        re-installs the survivors; the node re-wires at its next
        opportunity).
        """
        if self.wiring is None:
            return False
        remaining = set(self.wiring.neighbors) - set(departed)
        if remaining == set(self.wiring.neighbors):
            return False
        donated = set(self.wiring.donated) & remaining
        self.wiring = Wiring.of(self.node_id, remaining, donated)
        return True

    # ------------------------------------------------------------------ #
    # Re-wiring
    # ------------------------------------------------------------------ #
    def consider_rewiring(
        self,
        metric: Metric,
        residual_graph: OverlayGraph,
        active_nodes: Sequence[int],
        *,
        preferences: Optional[np.ndarray] = None,
        evaluator: Optional[WiringEvaluator] = None,
    ) -> RewireDecision:
        """Evaluate a new wiring and adopt it if it is worth it.

        The candidate wiring comes from the node's policy.  For
        cost-driven policies the node compares the candidate's cost with
        its current cost and applies the BR(ε) rule; purely structural
        policies (k-Random, k-Regular) only re-wire if their prescribed
        neighbour set changed (e.g. due to membership change).

        ``evaluator`` optionally supplies a pre-built
        :class:`WiringEvaluator` over ``residual_graph`` with candidates
        and destinations equal to the other active nodes (the engine
        builds one per re-wiring opportunity); the
        same evaluator then scores the current wiring *and* drives the
        policy's best-response computation, so the residual route-value
        sweep runs at most once per opportunity.
        """
        candidates = [c for c in active_nodes if c != self.node_id]
        destinations = candidates
        old_neighbors = (
            frozenset(self.wiring.neighbors) if self.wiring is not None else frozenset()
        )
        if evaluator is None:
            evaluator = WiringEvaluator(
                node=self.node_id,
                metric=metric,
                residual_graph=residual_graph,
                candidates=candidates,
                preferences=preferences,
                destinations=destinations,
            )
        old_cost = evaluator.evaluate(old_neighbors) if old_neighbors else evaluator.evaluate(())

        if isinstance(self.policy, HybridBRPolicy):
            new_wiring = self.policy.select_wiring(
                self.node_id,
                self.k,
                metric,
                residual_graph,
                candidates=candidates,
                preferences=preferences,
                destinations=destinations,
                evaluator=evaluator,
            )
            new_neighbors = frozenset(new_wiring.neighbors)
            donated = new_wiring.donated
        else:
            new_neighbors = frozenset(
                self.policy.select(
                    self.node_id,
                    self.k,
                    metric,
                    residual_graph,
                    candidates=candidates,
                    rng=self.rng,
                    preferences=preferences,
                    destinations=destinations,
                    evaluator=evaluator,
                )
            )
            donated = frozenset()
        new_cost = evaluator.evaluate(new_neighbors) if new_neighbors else old_cost

        cost_driven = isinstance(self.policy, (BestResponsePolicy, HybridBRPolicy))
        if old_neighbors and cost_driven:
            adopt = should_rewire(metric, old_cost, new_cost, self.epsilon)
        else:
            adopt = new_neighbors != old_neighbors
        rewired = bool(adopt and new_neighbors != old_neighbors)
        if rewired:
            self.wiring = Wiring.of(self.node_id, new_neighbors, donated)
            self.rewire_count += 1
        return RewireDecision(
            node=self.node_id,
            rewired=rewired,
            old_neighbors=old_neighbors,
            new_neighbors=frozenset(self.wiring.neighbors) if self.wiring else frozenset(),
            old_cost=float(old_cost),
            new_cost=float(new_cost if rewired else old_cost),
        )
