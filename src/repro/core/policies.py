"""Neighbour selection policies (Section 3.2).

EGOIST's default policy is Best-Response; for comparative evaluation the
paper also implements:

* **k-Random** — each node selects k neighbours uniformly at random; a
  cycle is enforced if the resulting graph is not connected.
* **k-Closest** — each node selects the k nodes with minimum direct link
  cost (or maximum bandwidth); a cycle is enforced if disconnected.
* **k-Regular** — all nodes follow a common offset vector
  ``o_j = 1 + (j - 1) * (n - 1) / (k + 1)`` around the id ring, splitting
  the ring periphery evenly.
* **Full mesh** — every node links to every other node (k = n - 1), the
  RON-like upper bound on performance and lower bound on scalability.

Policies produce, per node, the set of chosen neighbours; the module-level
:func:`build_overlay` helper assembles a complete
:class:`~repro.core.wiring.GlobalWiring` and, for Best-Response, runs
best-response dynamics until convergence (or a round limit).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.best_response import (
    BestResponseResult,
    WiringEvaluator,
    best_response,
    should_rewire,
)
from repro.core.cost import Metric, uniform_preferences
from repro.core.wiring import GlobalWiring, Wiring
from repro.routing.graph import OverlayGraph
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import ValidationError, check_index


class NeighborSelectionPolicy(abc.ABC):
    """Interface: pick a node's overlay neighbours."""

    #: Human-readable policy name (used in reports and figures).
    name: str = "abstract"

    #: Whether :meth:`select` reads the residual graph.  Cost-driven
    #: policies (Best-Response) do; structural policies (k-random,
    #: k-regular, k-closest, full mesh) pick neighbours from ids or direct
    #: link weights alone and are marked ``False`` so overlay builders can
    #: skip constructing a residual graph per node.  Subclasses default to
    #: ``True`` — the conservative assumption.
    uses_residual: bool = True

    @abc.abstractmethod
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
        """Return the chosen neighbour set for ``node`` (size <= k).

        ``evaluator`` optionally supplies a pre-built
        :class:`WiringEvaluator` over the same residual graph and
        candidate/destination sets, letting cost-driven policies reuse its
        residual route-value matrices instead of recomputing them;
        structural policies ignore it.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def _default_candidates(
    node: int, n: int, candidates: Optional[Sequence[int]]
) -> List[int]:
    if candidates is None:
        return [j for j in range(n) if j != node]
    return [int(c) for c in candidates if int(c) != node]


class KRandomPolicy(NeighborSelectionPolicy):
    """k-Random: uniform random neighbours."""

    name = "k-random"
    uses_residual = False

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
        pool = _default_candidates(node, metric.size, candidates)
        k = min(k, len(pool))
        if k == 0:
            return set()
        idx = rng.choice(len(pool), size=k, replace=False)
        return {pool[i] for i in np.atleast_1d(idx)}


class KClosestPolicy(NeighborSelectionPolicy):
    """k-Closest: minimum link cost (or maximum link bandwidth) neighbours."""

    name = "k-closest"
    uses_residual = False

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
        pool = _default_candidates(node, metric.size, candidates)
        k = min(k, len(pool))
        if k == 0:
            return set()
        # One row lookup + stable argsort instead of n link_weight calls;
        # ties at the budget boundary resolve in pool order, as before.
        row = metric.link_weight_row(node)[np.array(pool, dtype=int)]
        order = np.argsort(-row if metric.maximize else row, kind="stable")
        return {pool[i] for i in order[:k]}


class KRegularPolicy(NeighborSelectionPolicy):
    """k-Regular: the common offset-vector wiring around the id ring.

    Node ``i`` connects to ``i + o_j (mod n)`` for each offset
    ``o_j = 1 + (j - 1) * (n - 1) / (k + 1)``, ``j = 1..k`` (offsets are
    rounded and deduplicated when ``n - 1`` is not a multiple of ``k + 1``).
    """

    name = "k-regular"
    uses_residual = False

    @staticmethod
    def offsets(n: int, k: int) -> List[int]:
        """The paper's offset vector for an n-node, degree-k overlay."""
        if n < 2:
            raise ValidationError("n must be >= 2")
        if k < 1:
            return []
        raw = [1 + (j - 1) * (n - 1) / (k + 1) for j in range(1, k + 1)]
        offsets: List[int] = []
        for value in raw:
            offset = int(round(value)) % n
            if offset == 0:
                offset = 1
            if offset not in offsets:
                offsets.append(offset)
        # Top up with unused offsets if rounding collapsed some.
        candidate = 1
        while len(offsets) < min(k, n - 1):
            if candidate % n != 0 and candidate not in offsets:
                offsets.append(candidate)
            candidate += 1
        return offsets[: min(k, n - 1)]

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
        allowed = set(_default_candidates(node, n, candidates))
        chosen: Set[int] = set()
        for offset in self.offsets(n, k):
            target = (node + offset) % n
            if target != node and target in allowed:
                chosen.add(target)
        # If candidate restriction removed some targets, fill from the ring.
        step = 1
        while len(chosen) < min(k, len(allowed)) and step < n:
            target = (node + step) % n
            if target != node and target in allowed:
                chosen.add(target)
            step += 1
        return chosen


class FullMeshPolicy(NeighborSelectionPolicy):
    """Full mesh: connect to every other node (the RON-like bound)."""

    name = "full-mesh"
    uses_residual = False

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
        return set(_default_candidates(node, metric.size, candidates))


class BestResponsePolicy(NeighborSelectionPolicy):
    """Best-Response: minimise the node's own cost given everyone else.

    Parameters
    ----------
    epsilon:
        BR(ε) threshold: when used inside re-wiring loops, a node only
        adopts the new wiring if it improves its cost by more than ε
        (relative).  ε = 0 is plain BR.
    exact_threshold:
        Candidate-pool size below which exhaustive enumeration is used.
    max_iterations:
        Local-search iteration budget.
    """

    name = "best-response"

    def __init__(
        self,
        epsilon: float = 0.0,
        *,
        exact_threshold: int = 12,
        max_iterations: int = 100,
    ):
        if epsilon < 0:
            raise ValidationError("epsilon must be non-negative")
        self.epsilon = float(epsilon)
        self.exact_threshold = int(exact_threshold)
        self.max_iterations = int(max_iterations)
        if self.epsilon > 0:
            self.name = f"best-response(eps={self.epsilon:g})"

    def compute(
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
        required: Iterable[int] = (),
        evaluator: Optional[WiringEvaluator] = None,
    ) -> BestResponseResult:
        """Full best-response computation returning cost and diagnostics.

        A pre-built ``evaluator`` (over the same residual graph and
        candidate/destination/required sets) skips the multi-source
        route-value sweep of evaluator construction — the engine passes
        the one it already built to score the node's current wiring.
        ``rng`` is accepted as :meth:`select` accepts it; the search
        draws nothing.
        """
        if evaluator is None:
            evaluator = WiringEvaluator(
                node=node,
                metric=metric,
                residual_graph=residual_graph,
                candidates=candidates,
                preferences=preferences,
                destinations=destinations,
                required=frozenset(required),
            )
        return best_response(
            evaluator,
            k,
            exact_threshold=self.exact_threshold,
            max_iterations=self.max_iterations,
        )

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
        result = self.compute(
            node,
            k,
            metric,
            residual_graph,
            candidates=candidates,
            preferences=preferences,
            destinations=destinations,
            evaluator=evaluator,
        )
        return set(result.neighbors)


# ---------------------------------------------------------------------- #
# Overlay construction
# ---------------------------------------------------------------------- #
def enforce_connectivity_cycle(
    wiring: GlobalWiring,
    metric: Metric,
    *,
    nodes: Optional[Sequence[int]] = None,
) -> int:
    """Add ring edges until the overlay is strongly connected.

    k-Random and k-Closest "enforce a cycle" when their graphs come out
    disconnected; we add successive-id ring edges (i -> i+1 mod n) among
    the participating nodes until strong connectivity holds.  Returns the
    number of edges added.
    """
    node_list = sorted(nodes) if nodes is not None else list(range(wiring.n))
    if len(node_list) < 2:
        return 0
    added = 0
    graph = wiring.to_graph(active=node_list)
    if graph.is_strongly_connected(node_list):
        return 0
    for idx, node in enumerate(node_list):
        successor = node_list[(idx + 1) % len(node_list)]
        current = wiring.wiring_of(node)
        neighbors = set(current.neighbors) if current is not None else set()
        if successor in neighbors or successor == node:
            continue
        neighbors.add(successor)
        weights = wiring.weights_of(node)
        weights[successor] = metric.link_weight(node, successor)
        donated = current.donated if current is not None else frozenset()
        wiring.set_wiring(Wiring.of(node, neighbors, donated), weights)
        added += 1
    return added


def build_overlay(
    policy: NeighborSelectionPolicy,
    metric: Metric,
    k: int,
    *,
    nodes: Optional[Sequence[int]] = None,
    preferences: Optional[np.ndarray] = None,
    rng: SeedLike = None,
    br_rounds: int = 6,
    ensure_connected: bool = True,
) -> GlobalWiring:
    """Build a complete overlay under ``policy``.

    For the empirical policies every node selects independently and a
    connectivity cycle is enforced if needed.  For Best-Response the
    overlay is built by best-response dynamics: starting from a random
    wiring, nodes repeatedly (in random order) recompute their best
    response to everyone else until no node changes or ``br_rounds``
    rounds elapse.

    Parameters
    ----------
    policy:
        The neighbour selection policy.
    metric:
        Cost metric supplying link weights and objectives.
    k:
        Neighbour budget per node.
    nodes:
        Participating nodes (defaults to all of ``metric.size``).
    preferences:
        Preference matrix (uniform by default).
    rng:
        Seed or generator.
    br_rounds:
        Maximum best-response dynamics rounds (BR policy only).
    ensure_connected:
        Whether to enforce the connectivity cycle for empirical policies.
    """
    rng = as_generator(rng)
    n = metric.size
    node_list = sorted(nodes) if nodes is not None else list(range(n))
    wiring = GlobalWiring(n)

    if isinstance(policy, BestResponsePolicy):
        return _build_best_response_overlay(
            policy,
            metric,
            k,
            node_list,
            preferences=preferences,
            rng=rng,
            rounds=br_rounds,
        )

    # Structural policies never read the residual graph (see
    # ``NeighborSelectionPolicy.uses_residual``); building one per node is
    # pure overhead, so they all get a single empty placeholder.
    needs_residual = getattr(policy, "uses_residual", True)
    placeholder = OverlayGraph(n) if not needs_residual else None
    for node in node_list:
        residual = (
            wiring.to_graph(active=node_list) if needs_residual else placeholder
        )
        chosen = policy.select(
            node,
            k,
            metric,
            residual,
            candidates=[c for c in node_list if c != node],
            rng=rng,
            preferences=preferences,
            destinations=[d for d in node_list if d != node],
        )
        # One row lookup instead of len(chosen) link_weight calls; the
        # row holds the same floats, so wirings are unchanged.
        row = metric.link_weight_row(node)
        weights = {v: float(row[v]) for v in chosen}
        wiring.set_wiring(Wiring.of(node, chosen), weights)

    if ensure_connected and not isinstance(policy, FullMeshPolicy):
        enforce_connectivity_cycle(wiring, metric, nodes=node_list)
    return wiring


def seed_random_overlay(
    metric: Metric,
    k: int,
    node_list: Sequence[int],
    rng: np.random.Generator,
) -> GlobalWiring:
    """The k-Random starting wiring of best-response dynamics.

    Shared by the sequential overlay builder and the batched
    multi-deployment sweep (:mod:`repro.core.deployment_batch`) so that
    both consume the deployment's RNG stream identically.
    """
    wiring = GlobalWiring(metric.size)
    seed_policy = KRandomPolicy()
    placeholder = OverlayGraph(metric.size)
    for node in node_list:
        chosen = seed_policy.select(
            node,
            k,
            metric,
            placeholder,
            candidates=[c for c in node_list if c != node],
            rng=rng,
        )
        row = metric.link_weight_row(node)
        weights = {v: float(row[v]) for v in chosen}
        wiring.set_wiring(Wiring.of(node, chosen), weights)
    return wiring


def best_response_rewire_step(
    policy: "BestResponsePolicy",
    metric: Metric,
    k: int,
    node: int,
    wiring: GlobalWiring,
    evaluator: WiringEvaluator,
) -> bool:
    """One re-wiring opportunity of best-response dynamics.

    Scores the node's current wiring and its best response on the
    supplied evaluator, adopts the new wiring under the BR(ε) rule, and
    returns whether the node actually re-wired.  The sequential builder
    steps every node with it, the lockstep build every node the fused
    kernel does not replicate — byte identity between the two paths
    reduces to feeding this step the same evaluator values.
    """
    current = wiring.wiring_of(node)
    current_cost = evaluator.evaluate(current.neighbors if current else ())
    result = best_response(
        evaluator,
        k,
        exact_threshold=policy.exact_threshold,
        max_iterations=policy.max_iterations,
    )
    adopt = current is None or should_rewire(
        metric, current_cost, result.cost, policy.epsilon
    )
    if adopt and (current is None or set(result.neighbors) != set(current.neighbors)):
        weights = {v: metric.link_weight(node, v) for v in result.neighbors}
        wiring.set_wiring(result.as_wiring(), weights)
        return True
    return False


def _build_best_response_overlay(
    policy: BestResponsePolicy,
    metric: Metric,
    k: int,
    node_list: Sequence[int],
    *,
    preferences: Optional[np.ndarray],
    rng: np.random.Generator,
    rounds: int,
) -> GlobalWiring:
    """Best-response dynamics starting from a random wiring."""
    wiring = seed_random_overlay(metric, k, node_list, rng)
    order = list(node_list)
    for _round in range(int(rounds)):
        rng.shuffle(order)
        changed = 0
        for node in order:
            residual = wiring.residual_graph(node, active=node_list)
            evaluator = WiringEvaluator(
                node=node,
                metric=metric,
                residual_graph=residual,
                candidates=[c for c in node_list if c != node],
                preferences=preferences,
                destinations=[d for d in node_list if d != node],
            )
            if best_response_rewire_step(policy, metric, k, node, wiring, evaluator):
                changed += 1
        if changed == 0:
            break
    return wiring


#: Registry of the standard policies keyed by their figure labels.
STANDARD_POLICIES: Dict[str, NeighborSelectionPolicy] = {
    "k-random": KRandomPolicy(),
    "k-closest": KClosestPolicy(),
    "k-regular": KRegularPolicy(),
    "best-response": BestResponsePolicy(),
    "full-mesh": FullMeshPolicy(),
}
