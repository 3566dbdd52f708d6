"""Batched multi-deployment sweeps: build every overlay and score them all.

The paper's k-sweeps (Fig. 1 and friends) compare many *independent*
overlay deployments — one per (policy, k, metric) triple — that share one
underlay.  Building and scoring them one after another leaves the
vectorised kernels idle between deployments; this module stacks them:

* **Construction.**  Best-response dynamics run first, through the
  repo's one lockstep driver, that of :mod:`repro.core.engine_batch`:
  each deployment's dynamics are a small owner that stands where an
  engine stands, and one round of them is one lockstep epoch — residual
  planners, settled skips, the fused kernel and the BR(ε) adoption rule
  are the epoch loop's own.  Structural policies build directly
  (:func:`~repro.core.policies.build_overlay`: they select from ids and
  direct link weights, so there is nothing to stack), each when its
  score chunk asks for it, so a batch never holds more than one chunk of
  them.

* **Scoring.**  The built overlays are scored a chunk of
  :data:`_SCORE_BLOCK_NODES` stacked nodes at a time: the chunk's
  route-value matrices are stacked into one ``(deployments x hops x
  destinations)`` tensor — one block-diagonal Dijkstra, or one stack of
  max-min closures, per objective group — and every node cost of the
  chunk falls out of one preference-weighted broadcast.  Deployments of
  a chunk whose graph and objective direction match byte for byte (e.g.
  full-mesh overlays over a drift-free underlay) share one tensor slice.

Both phases are bitwise identical to the sequential reference path:
``batched=False`` is the plain code with no stacking — one
:func:`~repro.core.policies.build_overlay` per deployment (a fresh
residual sweep per re-wiring opportunity), then one ``all_node_costs``
per deployment — and is what the parity tests compare against.  Each
deployment consumes its own RNG stream in the same sequence either way,
so no two deployments may share one :class:`numpy.random.Generator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.best_response import WiringEvaluator
from repro.core.cost import Metric, check_preferences, uniform_preferences
from repro.core.engine import EpochPlan
from repro.core.engine_batch import _LockstepDriver, _LockstepState
from repro.core.lockstep import batched_route_matrices
from repro.core.node import EgoistNode
from repro.core.policies import (
    BestResponsePolicy,
    NeighborSelectionPolicy,
    best_response_rewire_step,
    build_overlay,
    seed_random_overlay,
)
from repro.core.wiring import GlobalWiring
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import ValidationError

#: Stacked deployment nodes scored at a time.  One chunk's block-diagonal
#: Dijkstra has a dense ``(blocks*n)^2`` distance output, and its graphs
#: and tensors are the scoring working set: the default
#: ``fig1-delay-ping`` sweep (35 deployments of 50 nodes) peaked at
#: 32.6 MB traced in one 1 750-node call, and at 1.9 MB in chunks of this
#: size (process max RSS 102.0 -> 73.3 MB).
_SCORE_BLOCK_NODES = 256

#: Stacked deployment nodes (deployments x n) up to which the cells of a
#: sweep merge into one batch (:func:`repro.scenario.session.run_group`).
#: A wider group runs fewer, wider lockstep rounds; what grows with it is
#: the best-response rounds' working set (the fused kernel's tensors, a
#: round's stacked residual sweep, one dense matrix per build), since
#: structural overlays are built as their score chunk is scored.  On
#: ``build_12cell`` (12 cells of 4 deployments x 48 nodes, seeds 7 and
#: 11-13, a 2-vCPU box) the median ``peak_rss_mb`` read 72.8 at the old
#: 576-node cap without that deferral, and 73.8 / 75.6 with it at caps
#: of 1 152 / 2 304 nodes (6 / 12 cells); this cap is the widest within
#: +2%.
MERGE_MAX_NODES = 1152


@dataclass
class DeploymentSpec:
    """One independent overlay deployment of a sweep.

    Parameters
    ----------
    label:
        Series label (e.g. the policy name) — not required to be unique.
    policy:
        Neighbour-selection policy building the overlay.
    k:
        Per-node neighbour budget.
    announced:
        The metric wirings are chosen from (what nodes measured).
    truth:
        The metric the built overlay is evaluated on.
    br_rounds:
        Best-response dynamics round limit (BR policies only).
    preferences:
        Preference matrix (uniform by default).
    ensure_connected:
        Whether structural policies enforce the connectivity cycle.
    rng:
        The deployment's *own* RNG stream.  Give every spec an
        independent stream (e.g. via
        :func:`repro.util.rng.spawn_generators`) — the batched and
        sequential paths then consume identical draws per deployment
        regardless of build interleaving.
    """

    label: str
    policy: NeighborSelectionPolicy
    k: int
    announced: Metric
    truth: Metric
    br_rounds: int = 6
    preferences: Optional[np.ndarray] = None
    ensure_connected: bool = True
    rng: SeedLike = None

    def __post_init__(self):
        if self.preferences is not None:
            self.preferences = check_preferences(self.preferences, self.announced.size)


class _BuildOwner:
    """One deployment's best-response dynamics, standing where an engine
    stands for the lockstep driver: one round is one epoch.

    Draw for draw :func:`build_overlay`'s: the seed overlay, then one
    in-place shuffle per round on the deployment's own stream (fused
    steps draw nothing).  Its nodes carry the policy's epsilon.
    """

    def __init__(self, spec: DeploymentSpec):
        self.spec = spec
        self.policy = spec.policy
        self.k = int(spec.k)
        self.n = n = spec.announced.size
        self.rng = as_generator(spec.rng)
        self.preferences = (
            spec.preferences if spec.preferences is not None else uniform_preferences(n)
        )
        self.node_list = list(range(n))
        self.active_key = tuple(self.node_list)
        self.order = list(self.node_list)
        self.wiring = seed_random_overlay(spec.announced, self.k, self.node_list, self.rng)
        self.nodes = [
            EgoistNode(v, spec.policy, self.k, epsilon=spec.policy.epsilon, seed=self.rng)
            for v in self.node_list
        ]
        for v, node in enumerate(self.nodes):
            node.wiring = self.wiring.wiring_of(v)
        self.rounds = 0

    def begin_epoch(self) -> EpochPlan:
        self.rounds += 1
        self.rng.shuffle(self.order)
        return EpochPlan(
            epoch=self.rounds,
            active_list=self.node_list,
            active_key=self.active_key,
            active_rows=np.arange(self.n),
            announced=self.spec.announced,
            truth=self.spec.truth,
            order=self.order,
            bits_before=0,
            # One metric for the whole build: a constant fingerprint.
            metric_fp="",
        )

    def step_node(self, plan: EpochPlan, residual: Optional[np.ndarray] = None) -> bool:
        """The next opportunity through an evaluator, handed the round's
        residual (it sweeps the residual graph itself only when none was
        planned: a node with no candidate hop)."""
        node = plan.order[plan.pos]
        plan.pos += 1
        candidates = [c for c in self.node_list if c != node]
        graph = None if residual is not None else self.wiring.residual_graph(node)
        evaluator = WiringEvaluator(
            node=node,
            metric=plan.announced,
            residual_graph=graph,
            candidates=candidates,
            preferences=self.preferences,
            destinations=candidates,
            residual_values=residual,
        )
        rewired = best_response_rewire_step(
            self.policy, plan.announced, self.k, node, self.wiring, evaluator
        )
        if rewired:
            self.nodes[node].wiring = self.wiring.wiring_of(node)
            plan.rewirings += 1
        return rewired

    def announce(self, plan: EpochPlan, node: int) -> None:
        """The adoption tail: install a new wiring at announced weights."""
        wiring = self.nodes[node].wiring
        if wiring is not self.wiring.wiring_of(node):
            row = plan.announced.link_weight_row(node)
            self.wiring.set_wiring(wiring, {v: float(row[v]) for v in wiring.neighbors})


def _graph_dense(graph) -> np.ndarray:
    """Dense weight matrix of an :class:`OverlayGraph` (NaN absent)."""
    dense = np.full((graph.n, graph.n), np.nan)
    for u, v, w in graph.edges():
        dense[u, v] = w
    return dense


def _sequential_overlay(spec: DeploymentSpec) -> GlobalWiring:
    """Build one deployment on its own with :func:`build_overlay`.

    The whole of the ``batched=False`` build, and the batched build of
    structural (non-BR) policies: those select from ids and direct link
    weights alone, so there is nothing to stack.  Consumes the
    deployment's RNG stream exactly like the lockstep build.
    """
    return build_overlay(
        spec.policy,
        spec.announced,
        spec.k,
        preferences=spec.preferences,
        rng=spec.rng,
        br_rounds=spec.br_rounds,
        ensure_connected=spec.ensure_connected,
    )


def _route_values(specs: Sequence[DeploymentSpec], graphs: Sequence, n: int) -> np.ndarray:
    """``(deployments x hops x destinations)`` true route values.

    Stacks each deployment graph's all-sources route-value matrix
    (shortest-path costs, or bottleneck bandwidths for maximising
    metrics) into one tensor, deduplicating members whose dense weight
    matrix (byte for byte) and objective direction match.
    """
    tensor = np.empty((len(graphs), n, n))
    slots: Dict[Tuple[bool, bytes], List[int]] = {}
    denses: Dict[Tuple[bool, bytes], np.ndarray] = {}
    for i, (spec, graph) in enumerate(zip(specs, graphs)):
        dense = _graph_dense(graph)
        key = (bool(spec.truth.maximize), dense.tobytes())
        slots.setdefault(key, []).append(i)
        denses.setdefault(key, dense)
    for maximize in (False, True):
        keys = [key for key in slots if key[0] == maximize]
        if not keys:
            continue
        stack = np.stack([denses[key] for key in keys])
        matrices = batched_route_matrices(stack, maximize, block_nodes=_SCORE_BLOCK_NODES)
        for key, matrix in zip(keys, matrices):
            for i in slots[key]:
                tensor[i] = matrix
    return tensor


def _mean_costs(
    specs: Sequence[DeploymentSpec], picked: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Mean node cost per deployment from its ``(n, n - 1)`` route values
    to everyone else (``picked``), preference-weighted and clamped."""
    n = picked.shape[1]
    prefs = np.empty(picked.shape)
    for i, spec in enumerate(specs):
        matrix = spec.preferences if spec.preferences is not None else uniform_preferences(n)
        prefs[i] = matrix[rows, cols]
    costs = np.empty((len(specs), n))
    # Group by the full objective convention (direction AND
    # disconnection value), since the clamp applies one value per
    # group; metrics overriding unreachable_value get their own.
    groups: Dict[Tuple[bool, float], List[int]] = {}
    for i, spec in enumerate(specs):
        key = (bool(spec.truth.maximize), float(spec.truth.unreachable_value))
        groups.setdefault(key, []).append(i)
    for (maximize, unreachable_value), members in groups.items():
        block = picked[members]
        if maximize:
            reachable = np.isfinite(block) & (block > 0)
        else:
            reachable = np.isfinite(block)
        block = np.where(reachable, block, unreachable_value)
        costs[members] = (prefs[members] * block).sum(axis=2)
    return costs.mean(axis=1)


class DeploymentBatch:
    """A sweep of independent deployments over metrics of one size.

    The deployments usually share one underlay (one cell's grid); a
    sweep's build-only cells of one ``n`` also merge into one batch
    (:func:`repro.scenario.session.run_group`, up to
    :data:`MERGE_MAX_NODES`), which gives the lockstep driver the width
    its stacked planners and fused kernel share their per-call overhead
    across.  Nothing couples the deployments: each one's results are the
    same whatever else is in the batch.

    Parameters
    ----------
    specs:
        The deployments, all over metrics of the same size.  Mixed metric
        families are allowed (the kernels group by objective direction).
    batched:
        ``True`` (default) uses the stacked kernels; ``False`` is the
        sequential reference path — :func:`build_overlay` per
        deployment, then ``Metric.all_node_costs`` per deployment —
        kept for parity testing.  Both produce bit-identical results.
    """

    def __init__(self, specs: Sequence[DeploymentSpec], *, batched: bool = True):
        specs = list(specs)
        if not specs:
            raise ValidationError("a DeploymentBatch needs at least one spec")
        sizes = {spec.announced.size for spec in specs}
        sizes |= {spec.truth.size for spec in specs}
        if len(sizes) != 1:
            raise ValidationError(
                f"all deployments must share one overlay size, got {sorted(sizes)}"
            )
        # One Generator drawn by two deployments would interleave their
        # draws differently on the lockstep and the sequential path.
        streams: Dict[int, int] = {}
        for i, spec in enumerate(specs):
            if isinstance(spec.rng, np.random.Generator):
                first = streams.setdefault(id(spec.rng), i)
                if first != i:
                    raise ValidationError(
                        f"deployments {specs[first].label!r} and {spec.label!r} share "
                        "one Generator; give every spec its own stream"
                    )
        self.specs: List[DeploymentSpec] = specs
        self.batched = bool(batched)
        self.n = specs[0].announced.size

    # ------------------------------------------------------------------ #
    def build(self) -> List[GlobalWiring]:
        """Build every deployment's overlay (order-independent per spec).

        Best-response dynamics step in lockstep until a round re-wires
        nobody or the round limit passes (zero rounds keep the seed
        wiring and, as sequentially, draw no shuffle).
        """
        return list(self._overlays())

    def _overlays(self) -> Iterator[GlobalWiring]:
        """Every deployment's overlay, in spec order, each built as late
        as it can be.

        The best-response deployments' lockstep rounds run first (they
        need one another for width); each structural overlay is built
        when it is asked for, so a consumer that scores chunk by chunk
        (:meth:`run`) holds one chunk's overlays, not the sweep's.  Every
        spec draws from its own stream, so the order changes no draw.
        """
        if not self.batched:
            for spec in self.specs:
                yield _sequential_overlay(spec)
            return
        built = self._best_responses()
        for i, spec in enumerate(self.specs):
            yield built.pop(i) if i in built else _sequential_overlay(spec)

    def _best_responses(self) -> Dict[int, GlobalWiring]:
        """Index -> overlay of every best-response deployment, its rounds
        run in lockstep; what the rounds held (owners, dense matrices) is
        gone when this returns."""
        wirings: Dict[int, GlobalWiring] = {}
        states: List[_LockstepState] = []
        for i, spec in enumerate(self.specs):
            if not isinstance(spec.policy, BestResponsePolicy):
                continue
            owner = _BuildOwner(spec)
            wirings[i] = owner.wiring
            if int(spec.br_rounds) > 0:
                states.append(_LockstepState(owner))
        driver = _LockstepDriver()
        while states:
            driver._run_rounds(states)
            states = [
                st
                for st in states
                if st.plan.rewirings and st.plan.epoch < int(st.engine.spec.br_rounds)
            ]
        return wirings

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def mean_true_costs(self, wirings: Iterable[GlobalWiring]) -> np.ndarray:
        """Mean per-node cost of every deployment on its true metric.

        ``wirings`` is consumed in order, one score chunk at a time: the
        batched path scores :data:`_SCORE_BLOCK_NODES` stacked nodes'
        worth of deployments at once, each chunk one preference-weighted
        broadcast over its route values, so the working set is a
        chunk's, not the sweep's; the sequential path is one
        ``all_node_costs`` call per deployment.  Both are bitwise
        identical (same route values, same elementwise clamp/multiply,
        same pairwise summation order per row).
        """
        overlays = iter(wirings)
        n = self.n
        means = np.empty(len(self.specs))
        step = max(1, _SCORE_BLOCK_NODES // n) if self.batched else 1
        rows = np.arange(n)[:, None]
        # Destination columns per node, in the ascending "everyone else"
        # order Metric._weighted_cost iterates.
        cols = np.array([[j for j in range(n) if j != i] for i in range(n)])
        for start in range(0, len(self.specs), step):
            chunk = slice(start, start + step)
            specs = self.specs[chunk]
            graphs = [wiring.to_graph() for wiring in islice(overlays, len(specs))]
            if len(graphs) != len(specs):
                raise ValidationError("one wiring per deployment expected")
            if not self.batched:
                costs = specs[0].truth.all_node_costs(graphs[0], specs[0].preferences)
                means[start] = float(np.mean(list(costs.values())))
                continue
            picked = _route_values(specs, graphs, n)[:, rows, cols]  # (chunk, n, n - 1)
            means[chunk] = _mean_costs(specs, picked, rows, cols)
        if next(overlays, None) is not None:
            raise ValidationError("one wiring per deployment expected")
        return means

    # ------------------------------------------------------------------ #
    def run(self) -> np.ndarray:
        """Build every deployment and return the mean true-metric costs:
        :meth:`mean_true_costs` over the overlays as they are built."""
        return self.mean_true_costs(self._overlays())
