"""Batched multi-deployment sweep kernels.

The paper's k-sweeps (Fig. 1 and friends) compare many *independent*
overlay deployments — one per (policy, k, metric) triple — that share one
underlay.  Building and scoring them one after another leaves the
vectorised best-response kernels idle between deployments; this module
stacks the per-deployment work instead:

* **Construction.**  Best-response dynamics of all deployments run in
  lockstep.  The expensive part of a re-wiring opportunity is the
  multi-source sweep producing the node's residual route-value matrix;
  the batch precomputes those matrices for *waves* of upcoming
  ``(deployment, node)`` opportunities in shared kernel calls
  (:func:`repro.core.lockstep.batched_route_matrices` for the additive
  metrics, :func:`~repro.core.lockstep.fill_bandwidth_residuals` for
  bandwidth) and injects them through each deployment's
  :class:`~repro.core.route_cache.ResidualRouteCache`.  Cache tokens are
  the engine's ``(wiring version, metric fingerprint, membership)``
  triples, with :func:`~repro.core.route_cache.metric_fingerprint`
  computed once per distinct underlay snapshot and shared by every
  deployment announcing the same matrix; a re-wire bumps the wiring
  version, so stale wave entries stop matching without explicit
  invalidation.  Wave sizes adapt per deployment (grow on a quiet run,
  reset on a re-wire) so quiescent rounds cost one kernel call while
  churning rounds waste almost no speculative work.  The re-wiring
  opportunities themselves go through the one fused kernel,
  :func:`repro.core.lockstep.fused_best_response`; only the adoption
  rule (build-time BR(ε) with the *policy's* epsilon) lives here.

* **Scoring.**  The built overlays' route-value matrices are stacked
  into a single ``(deployments x hops x destinations)`` tensor — one
  block-diagonal Dijkstra, or max-min closures, per objective group —
  and every node cost of every deployment falls out of one
  preference-weighted broadcast.  Deployments whose graph and objective
  fingerprints match (e.g. full-mesh overlays over a drift-free
  underlay) share one tensor slice.

Both phases are bitwise identical to the sequential reference path:
``batched=False`` is the plain code with no stacking — one
:func:`repro.core.policies.build_overlay` per deployment (a fresh
residual sweep per re-wiring opportunity), then one ``all_node_costs``
per deployment — and is what the parity tests compare against.  Each
deployment consumes its own spawned RNG stream in the same sequence
either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.best_response import WiringEvaluator, should_rewire
from repro.core.cost import Metric, check_preferences, uniform_preferences
from repro.core.lockstep import (
    Member,
    batched_route_matrices,
    fill_bandwidth_residuals,
    fusable,
    fused_best_response,
    wave_cap,
)
from repro.core.policies import (
    BestResponsePolicy,
    NeighborSelectionPolicy,
    best_response_rewire_step,
    build_overlay,
    seed_random_overlay,
)
from repro.core.route_cache import (
    ResidualRouteCache,
    array_fingerprint,
    metric_fingerprint,
)
from repro.core.wiring import GlobalWiring, Wiring
from repro.routing.widest_path import CLOSURE_MAX_NODES, widest_path_bandwidths_multi
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import ValidationError


class _CacheOnlyResidual:
    """Placeholder residual graph for cache-fed evaluators.

    The batched build guarantees every :class:`WiringEvaluator` it
    constructs finds its residual route-value matrix in the deployment's
    route cache, so the residual graph is never consulted.  Touching it
    anyway means the guarantee broke — fail loudly instead of silently
    recomputing from a wrong graph.
    """

    def __getattr__(self, name: str):
        raise ValidationError(
            "batched sweep expected the residual route matrix to be cached; "
            f"evaluator tried to read residual_graph.{name}"
        )


_CACHE_ONLY_RESIDUAL = _CacheOnlyResidual()


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


class _BRBuildState:
    """Lockstep best-response dynamics state of one deployment."""

    __slots__ = (
        "index",
        "spec",
        "rng",
        "node_list",
        "candidates",
        "hops_key",
        "hops_rows",
        "active_key",
        "metric_fp",
        "preferences",
        "fusable",
        "wiring",
        "dense",
        "cache",
        "order",
        "pos",
        "changed",
        "round",
        "wave",
    )

    def __init__(self, index: int, spec: DeploymentSpec, metric_fp: str):
        self.index = index
        self.spec = spec
        self.rng = as_generator(spec.rng)
        n = spec.announced.size
        self.node_list = list(range(n))
        self.active_key = tuple(self.node_list)
        self.metric_fp = metric_fp
        # Per-node candidate/hop structures (full membership, so they are
        # the same "everyone else" lists the sequential builder passes).
        self.candidates = [
            [c for c in self.node_list if c != node] for node in self.node_list
        ]
        self.hops_key = [tuple(c) for c in self.candidates]
        self.hops_rows = [np.array(c, dtype=int) for c in self.candidates]
        # Same values an evaluator would default to; resolved once so the
        # fused step can gather preference rows.
        self.preferences = (
            spec.preferences
            if spec.preferences is not None
            else uniform_preferences(n)
        )
        self.fusable = fusable(spec.policy, spec.k, n - 1)
        self.wiring = seed_random_overlay(spec.announced, spec.k, self.node_list, self.rng)
        self.dense = _announced_dense(spec.announced, self.wiring, n)
        self.cache = ResidualRouteCache(max_entries=n)
        self.order = list(self.node_list)
        self.pos = len(self.order)
        self.changed = 0
        self.round = 0
        self.wave = 1

    # ------------------------------------------------------------------ #
    def refresh_token(self) -> None:
        self.cache.set_token(
            (self.wiring.version, self.metric_fp, self.active_key)
        )

    def start_round(self) -> None:
        self.rng.shuffle(self.order)
        self.pos = 0
        self.changed = 0
        self.round += 1

    def round_finished(self) -> bool:
        return self.pos >= len(self.order)

    def converged(self) -> bool:
        return self.round >= int(self.spec.br_rounds) or (
            self.round > 0 and self.changed == 0
        )

    def note_rewired(self, node: int) -> None:
        """Track a re-wire: refresh the dense row, reset the wave."""
        row = self.dense[node]
        row[:] = np.nan
        for v, w in self.wiring.weights_of(node).items():
            row[v] = w
        self.wave = 1

    def grow_wave(self) -> None:
        self.wave = min(self.wave + 1, wave_cap(self.spec.announced.maximize))


def _announced_dense(metric: Metric, wiring: GlobalWiring, n: int) -> np.ndarray:
    """Dense announced-weight matrix of ``wiring`` (NaN marks absent edges)."""
    dense = np.full((n, n), np.nan)
    for node in range(n):
        for v, w in wiring.weights_of(node).items():
            dense[node, v] = w
    return dense


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


class DeploymentBatch:
    """A sweep of independent deployments over one shared underlay.

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
        self.specs: List[DeploymentSpec] = specs
        self.batched = bool(batched)
        self.n = specs[0].announced.size
        # "Underlay snapshot" fingerprints, shared across deployments that
        # announce the same metric object.
        self._metric_fps: Dict[int, str] = {}

    # ------------------------------------------------------------------ #
    # Fingerprints
    # ------------------------------------------------------------------ #
    def announced_fingerprint(self, metric: Metric) -> str:
        """Cached :func:`metric_fingerprint` of an announced metric."""
        key = id(metric)
        fp = self._metric_fps.get(key)
        if fp is None:
            fp = metric_fingerprint(metric)
            self._metric_fps[key] = fp
        return fp

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def build(self) -> List[GlobalWiring]:
        """Build every deployment's overlay (order-independent per spec)."""
        if not self.batched:
            return [_sequential_overlay(spec) for spec in self.specs]
        wirings: List[Optional[GlobalWiring]] = [None] * len(self.specs)
        lockstep: List[Tuple[int, DeploymentSpec]] = []
        for i, spec in enumerate(self.specs):
            if isinstance(spec.policy, BestResponsePolicy):
                lockstep.append((i, spec))
            else:
                wirings[i] = _sequential_overlay(spec)
        if lockstep:
            for (i, _spec), wiring in zip(lockstep, self._build_lockstep(lockstep)):
                wirings[i] = wiring
        return [w for w in wirings if w is not None]

    def _build_lockstep(
        self, items: Sequence[Tuple[int, DeploymentSpec]]
    ) -> List[GlobalWiring]:
        """Best-response dynamics of many deployments, in lockstep.

        Every loop iteration advances each live deployment by exactly one
        re-wiring opportunity: residual matrices for the current nodes
        (plus adaptive lookahead waves) come from one kernel call, and
        the opportunities themselves are scored for all fused deployments
        by the shared kernel (:meth:`_fused_rewire_steps`).
        """
        states = [
            _BRBuildState(i, spec, self.announced_fingerprint(spec.announced))
            for i, spec in items
        ]
        # A zero-round deployment keeps its seed wiring (and, like the
        # sequential path, never draws a round shuffle).
        live = [st for st in states if int(st.spec.br_rounds) > 0]
        for st in live:
            st.start_round()
        while live:
            self._refill_waves(live)
            # Fused groups share the full objective convention: direction
            # AND disconnection value (one clamp value per kernel call).
            groups: Dict[Tuple[bool, float], List[_BRBuildState]] = {}
            for st in live:
                if st.fusable:
                    metric = st.spec.announced
                    key = (bool(metric.maximize), float(metric.unreachable_value))
                    groups.setdefault(key, []).append(st)
            for group in groups.values():
                self._fused_rewire_steps(group)
            for st in live:
                if not st.fusable:
                    self._evaluator_rewire_step(st)
            finished: List[_BRBuildState] = []
            for st in live:
                if st.round_finished():
                    if st.converged():
                        finished.append(st)
                    else:
                        st.start_round()
            if finished:
                live = [st for st in live if st not in finished]
        return [st.wiring for st in states]

    def _refill_waves(self, live: Sequence[_BRBuildState]) -> None:
        """Precompute residual route matrices for each state's next wave."""
        additive: List[Tuple[_BRBuildState, int]] = []
        for st in live:
            st.refresh_token()
            missing = [
                node
                for node in st.order[st.pos : st.pos + st.wave]
                if st.hops_key[node]
                and st.cache.get(node, st.hops_key[node]) is None
            ]
            if not missing:
                continue
            if st.spec.announced.maximize:
                unfilled = fill_bandwidth_residuals(
                    st.cache,
                    st.dense,
                    missing,
                    st.node_list,
                    lambda node: (st.hops_key[node], st.hops_rows[node]),
                )
                # Past the dense-closure cutoff: the per-source heap
                # search on each residual graph — bitwise identical.
                for node in unfilled:
                    residual = st.wiring.residual_graph(node, active=st.node_list)
                    rows = widest_path_bandwidths_multi(
                        residual, st.candidates[node], batched=False
                    )
                    st.cache.put(node, st.hops_key[node], rows)
            else:
                additive.extend((st, node) for node in missing)
        if not additive:
            return
        n = self.n
        stack = np.empty((len(additive), n, n))
        for j, (st, node) in enumerate(additive):
            stack[j] = st.dense
            stack[j, node, :] = np.nan
        matrices = batched_route_matrices(stack, maximize=False)
        for j, (st, node) in enumerate(additive):
            st.cache.put(
                node, st.hops_key[node], matrices[j][st.hops_rows[node], :]
            )

    def _evaluator_rewire_step(self, st: _BRBuildState) -> None:
        """One re-wiring opportunity through a cache-fed evaluator.

        Fallback for deployments the fused kernels do not cover (small
        candidate pools that take the exact-enumeration branch, or
        k = 0): same step semantics, one deployment at a time.
        """
        spec = st.spec
        node = st.order[st.pos]
        st.refresh_token()
        evaluator = WiringEvaluator(
            node=node,
            metric=spec.announced,
            residual_graph=_CACHE_ONLY_RESIDUAL,
            candidates=st.candidates[node],
            preferences=spec.preferences,
            destinations=st.candidates[node],
            route_cache=st.cache,
        )
        rewired = best_response_rewire_step(
            spec.policy, spec.announced, spec.k, node, st.wiring, evaluator, st.rng
        )
        st.pos += 1
        if rewired:
            st.changed += 1
            st.note_rewired(node)
        else:
            st.grow_wave()

    def _fused_rewire_steps(self, group: Sequence[_BRBuildState]) -> None:
        """One re-wiring opportunity per deployment, through the shared kernel.

        Gathers each deployment's next node into a
        :class:`~repro.core.lockstep.Member`, lets
        :func:`~repro.core.lockstep.fused_best_response` score the whole
        group, and adopts per deployment under the build-time rule of
        :func:`~repro.core.policies.best_response_rewire_step`: BR(ε)
        with the policy's epsilon, an unwired node adopting anything.
        """
        metric = group[0].spec.announced
        members = []
        for st in group:
            node = st.order[st.pos]
            resid = st.cache.get(node, st.hops_key[node])
            if resid is None:  # pragma: no cover - refill guarantees this
                raise ValidationError(
                    "fused step expected the residual route matrix to be cached"
                )
            hops = st.hops_rows[node]
            current = st.wiring.wiring_of(node)
            members.append(
                Member(
                    resid,
                    hops,
                    st.spec.announced.link_weight_row(node)[hops],
                    st.preferences[node, hops],
                    st.spec.k,
                    current.neighbors if current is not None else (),
                    st.spec.policy.max_iterations,
                )
            )
        existing_cost, chosen, candidate_cost = fused_best_response(
            members,
            maximize=bool(metric.maximize),
            unreachable=metric.unreachable_value,
        )
        for d, (st, member) in enumerate(zip(group, members)):
            node = st.order[st.pos]
            neighbors = frozenset(chosen[d])
            current = st.wiring.wiring_of(node)
            adopt = current is None or should_rewire(
                st.spec.announced,
                float(existing_cost[d]),
                float(candidate_cost[d]),
                st.spec.policy.epsilon,
            )
            rewired = adopt and (
                current is None or neighbors != set(current.neighbors)
            )
            st.pos += 1
            if rewired:
                # Full membership: hop position of id v is v - (v > node).
                weights = {v: float(member.direct[v - (v > node)]) for v in chosen[d]}
                st.wiring.set_wiring(Wiring.of(node, neighbors), weights)
                st.changed += 1
                st.note_rewired(node)
            else:
                st.grow_wave()

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def route_value_tensor(self, graphs: Sequence) -> np.ndarray:
        """``(deployments x hops x destinations)`` true route values.

        Stacks each deployment graph's all-sources route-value matrix
        (shortest-path costs, or bottleneck bandwidths for maximising
        metrics) into one tensor, deduplicating members whose dense
        weight matrix and objective direction fingerprint-match.
        """
        if len(graphs) != len(self.specs):
            raise ValidationError("one graph per deployment expected")
        n = self.n
        tensor = np.empty((len(graphs), n, n))
        slots: Dict[Tuple[bool, str], List[int]] = {}
        denses: Dict[Tuple[bool, str], np.ndarray] = {}
        representatives: Dict[Tuple[bool, str], object] = {}
        for i, (spec, graph) in enumerate(zip(self.specs, graphs)):
            dense = _graph_dense(graph)
            key = (bool(spec.truth.maximize), array_fingerprint(dense))
            slots.setdefault(key, []).append(i)
            denses.setdefault(key, dense)
            representatives.setdefault(key, graph)
        for maximize in (False, True):
            keys = [key for key in slots if key[0] == maximize]
            if not keys:
                continue
            if maximize and n > CLOSURE_MAX_NODES:
                # Past the dense-closure cutoff sweep the original
                # graphs directly with the per-source search (bitwise
                # identical) instead of round-tripping through dense.
                matrices = [
                    widest_path_bandwidths_multi(
                        representatives[key], list(range(n)), batched=False
                    )
                    for key in keys
                ]
            else:
                stack = np.stack([denses[key] for key in keys])
                matrices = batched_route_matrices(stack, maximize)
            for key, matrix in zip(keys, matrices):
                for i in slots[key]:
                    tensor[i] = matrix
        return tensor

    def mean_true_costs(self, wirings: Sequence[GlobalWiring]) -> np.ndarray:
        """Mean per-node cost of every deployment on its true metric.

        The batched path computes the whole sweep in one
        preference-weighted broadcast over :meth:`route_value_tensor`;
        the sequential path is one ``all_node_costs`` call per
        deployment.  Both are bitwise identical (same route values, same
        elementwise clamp/multiply, same pairwise summation order).
        """
        if len(wirings) != len(self.specs):
            raise ValidationError("one wiring per deployment expected")
        graphs = [wiring.to_graph() for wiring in wirings]
        if not self.batched:
            means = np.empty(len(graphs))
            for i, (spec, graph) in enumerate(zip(self.specs, graphs)):
                costs = spec.truth.all_node_costs(graph, spec.preferences)
                means[i] = float(np.mean(list(costs.values())))
            return means
        values = self.route_value_tensor(graphs)
        n = self.n
        rows = np.arange(n)[:, None]
        # Destination columns per node, in the ascending "everyone else"
        # order Metric._weighted_cost iterates.
        cols = np.array([[j for j in range(n) if j != i] for i in range(n)])
        picked = values[:, rows, cols]  # (deployments, n, n - 1)
        prefs = np.empty((len(self.specs), n, n - 1))
        for i, spec in enumerate(self.specs):
            matrix = (
                spec.preferences
                if spec.preferences is not None
                else uniform_preferences(n)
            )
            prefs[i] = matrix[rows, cols]
        costs = np.empty((len(self.specs), n))
        # Group by the full objective convention (direction AND
        # disconnection value), since the clamp applies one value per
        # group; metrics overriding unreachable_value get their own.
        groups: Dict[Tuple[bool, float], List[int]] = {}
        for i, spec in enumerate(self.specs):
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

    # ------------------------------------------------------------------ #
    def run(self) -> np.ndarray:
        """Build every deployment and return the mean true-metric costs."""
        return self.mean_true_costs(self.build())
