"""The EGOIST overlay engine: epoch-driven simulation of a deployment.

The engine ties everything together the way the PlanetLab prototype did:

* a :class:`~repro.core.providers.MetricProvider` supplies measured and
  ground-truth link costs and advances substrate dynamics each epoch;
* every node runs a neighbour-selection policy (BR, BR(ε), HybridBR, or
  one of the empirical heuristics) and re-wires once per wiring epoch
  ``T`` (nodes are unsynchronised: within an epoch they re-wire in random
  order, one every ``T/n`` on average);
* an optional churn schedule turns nodes ON and OFF;
* an optional cheating model distorts what free riders announce;
* the link-state protocol floods announcements and its traffic is
  accounted;
* per-epoch history records re-wiring counts, node costs (on the true
  metric), and efficiency — the quantities behind Figures 1-4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.churn.metrics import overlay_efficiency
from repro.churn.models import ChurnSchedule
from repro.core.best_response import WiringEvaluator
from repro.core.bootstrap import BootstrapServer
from repro.core.cheating import CheatingModel
from repro.core.cost import (
    DISCONNECTION_COST,
    Metric,
    check_preferences,
    uniform_preferences,
)
from repro.core.failures import FailureSpec, FailureState, mask_metric
from repro.core.node import EgoistNode, RewireMode
from repro.core.policies import NeighborSelectionPolicy
from repro.core.providers import MetricProvider
from repro.core.route_cache import ResidualRouteCache, metric_fingerprint
from repro.core.wiring import GlobalWiring, Wiring
from repro.routing.linkstate import LinkStateProtocol
from repro.routing.shortest_path import all_pairs_shortest_costs
from repro.telemetry import runtime as telemetry
from repro.util.rng import SeedLike, as_generator, spawn_generators
from repro.util.simclock import SimClock
from repro.util.validation import ValidationError

class _LazyResidualGraph:
    """Residual graph built on first attribute access.

    A re-wiring opportunity needs the node's residual graph only when its
    route-value matrix misses the residual route cache; building the
    :class:`~repro.routing.graph.OverlayGraph` eagerly would waste the
    dominant share of a cache-hit step.  The proxy materialises the graph
    via :meth:`GlobalWiring.residual_graph` on first use and delegates
    every attribute to it, so consumers see exactly the graph the eager
    construction would have produced.
    """

    __slots__ = ("_wiring", "_node", "_active", "_graph")

    def __init__(self, wiring: GlobalWiring, node: int, active: Sequence[int]):
        self._wiring = wiring
        self._node = node
        self._active = active
        self._graph = None

    def materialize(self):
        """The real residual graph (built once)."""
        if self._graph is None:
            self._graph = self._wiring.residual_graph(self._node, active=self._active)
        return self._graph

    def __getattr__(self, name: str):
        return getattr(self.materialize(), name)


@dataclass
class EpochPlan:
    """Mutable state of one in-progress wiring epoch.

    :meth:`EgoistEngine.begin_epoch` produces a plan; repeated
    :meth:`EgoistEngine.step_node` calls consume ``order`` one re-wiring
    opportunity at a time; :meth:`EgoistEngine.finish_epoch` scores the
    epoch and advances the clock and substrate.  ``run_epoch`` chains the
    three, and :class:`~repro.core.engine_batch.EngineBatch` interleaves
    the steps of several engines to share residual route-value sweeps.
    """

    epoch: int
    active_list: List[int]
    active_key: Tuple[int, ...]
    #: ``active_list`` as an index array (flood recipients, row gathers).
    active_rows: np.ndarray
    announced: Metric
    truth: Metric
    order: List[int]
    bits_before: int
    metric_fp: Optional[str]
    pos: int = 0
    rewirings: int = 0

    @property
    def done(self) -> bool:
        """True once every re-wiring opportunity of the epoch ran."""
        return self.pos >= len(self.order)


@dataclass
class EpochView:
    """Read-only view of the last *committed* epoch, for live lookups.

    ``repro serve`` answers route lookups between epoch ticks; every
    answer must be attributable to a specific overlay state (the S-Bus
    stale-read discipline).  The view pins that attribution: the epoch
    number, the :class:`GlobalWiring` version at scoring time, the
    active membership, the announced metric snapshot the epoch wired
    under, and ``route_values`` — the all-sources routing values the
    epoch was scored with, scattered to ``(n, n)`` (rows of inactive
    sources read unreachable: ``inf`` additive, ``0.0`` bandwidth).  A
    lookup is a read of that matrix, never a second computation.  The
    engine refreshes the view in :meth:`finish_epoch`; the wiring is
    frozen between epochs (mutations only apply inside ``begin_epoch``),
    so the view describes the live overlay exactly.
    """

    epoch: int
    version: int
    active_list: List[int]
    announced: Metric
    route_values: np.ndarray


@dataclass
class EpochRecord:
    """Summary of one wiring epoch.

    ``routes_stuck`` counts ordered active pairs whose route over the
    built overlay is effectively dead at the end of the epoch — either
    unreachable or priced at/beyond the disconnection value because the
    path crosses a failed link.  Zero in healthy overlays; the resilience
    experiments track its decay after an injected failure.
    """

    epoch: int
    time: float
    active_nodes: int
    rewirings: int
    mean_cost: float
    mean_efficiency: float
    social_cost: float
    linkstate_bits: int
    routes_stuck: int = 0


@dataclass
class EngineHistory:
    """Per-epoch records plus final state of a simulation run."""

    records: List[EpochRecord] = field(default_factory=list)

    def rewirings_per_epoch(self) -> List[int]:
        """Total re-wirings in each epoch (Fig. 3 left)."""
        return [r.rewirings for r in self.records]

    def mean_costs(self) -> List[float]:
        """Mean node cost per epoch."""
        return [r.mean_cost for r in self.records]

    def mean_efficiencies(self) -> List[float]:
        """Mean node efficiency per epoch (churn experiments)."""
        return [r.mean_efficiency for r in self.records]

    def _steady_tail(self, warmup_fraction: float) -> List[EpochRecord]:
        """Post-warm-up records: at least the final record is always kept.

        ``warmup_fraction`` must lie in ``[0, 1]``; 1.0 means "the last
        epoch only" (not, as a naive slice would give, an empty tail).
        """
        if not 0.0 <= warmup_fraction <= 1.0:
            raise ValidationError("warmup_fraction must be in [0, 1]")
        if not self.records:
            return []
        start = min(int(len(self.records) * warmup_fraction), len(self.records) - 1)
        return self.records[start:]

    def steady_state_mean_cost(self, warmup_fraction: float = 0.5) -> float:
        """Mean cost over the post-warm-up epochs."""
        tail = self._steady_tail(warmup_fraction)
        if not tail:
            return float("nan")
        return float(np.mean([r.mean_cost for r in tail]))

    def steady_state_efficiency(self, warmup_fraction: float = 0.5) -> float:
        """Mean efficiency over the post-warm-up epochs."""
        tail = self._steady_tail(warmup_fraction)
        if not tail:
            return float("nan")
        return float(np.mean([r.mean_efficiency for r in tail]))

    def total_rewirings(self) -> int:
        """Total re-wirings over the whole run."""
        return int(sum(r.rewirings for r in self.records))


class EgoistEngine:
    """Epoch-driven simulation of an EGOIST deployment.

    Parameters
    ----------
    provider:
        Metric provider (delay, load, or bandwidth).
    policy:
        Neighbour-selection policy shared by all nodes.
    k:
        Per-node neighbour budget.
    epoch_length:
        Wiring epoch ``T`` in seconds (60 in the paper).
    announce_interval:
        Link-state announcement period ``T_announce`` (20 s in the paper).
    churn:
        Optional churn schedule; without it, all nodes stay ON.
    cheating:
        Optional cheating model distorting announced costs.
    failures:
        Optional failure-injection schedule (see
        :class:`~repro.core.failures.FailureSpec`).  Applied at the start
        of each epoch: down nodes leave the active set, down links are
        dropped from the wiring (an ordinary version bump, so cached
        residuals stop matching) and masked to the disconnection value
        in both metrics, and announcement loss is routed through the
        link-state protocol.
    epsilon:
        BR(ε) threshold applied by every node.
    rewire_mode:
        Immediate or delayed reaction to dropped links.
    preferences:
        Preference matrix (uniform by default).
    compute_efficiency:
        Whether to compute the efficiency metric each epoch (slightly
        expensive; mainly needed for churn experiments).
    route_cache_size:
        Entry budget for the residual route-value cache shared by every
        re-wiring opportunity: within an opportunity the node's cost
        evaluation and its best-response computation reuse one sweep, and
        across quiescent epochs (no re-wiring, unchanged announced metric
        and membership) a node's matrices are reused verbatim.  ``None``
        (default) sizes the cache to the deployment (one entry per node);
        ``0`` disables caching entirely.
    seed:
        Master seed.
    """

    def __init__(
        self,
        provider: MetricProvider,
        policy: NeighborSelectionPolicy,
        k: int,
        *,
        epoch_length: float = 60.0,
        announce_interval: float = 20.0,
        churn: Optional[ChurnSchedule] = None,
        cheating: Optional[CheatingModel] = None,
        failures: Optional[FailureSpec] = None,
        epsilon: float = 0.0,
        rewire_mode: RewireMode = RewireMode.DELAYED,
        preferences: Optional[np.ndarray] = None,
        compute_efficiency: bool = False,
        route_cache_size: Optional[int] = None,
        seed: SeedLike = None,
    ):
        self.provider = provider
        self.policy = policy
        self.k = int(k)
        self.n = provider.size
        if churn is not None and churn.n != self.n:
            raise ValidationError("churn schedule size does not match provider")
        self.churn = churn
        self.cheating = cheating
        self.preferences = (
            check_preferences(preferences, self.n)
            if preferences is not None
            else uniform_preferences(self.n)
        )
        self.compute_efficiency = bool(compute_efficiency)
        self.clock = SimClock(epoch_length=epoch_length)
        self.protocol = LinkStateProtocol(self.n, announce_interval_s=announce_interval)
        self.bootstrap = BootstrapServer(seed=seed)
        self._rng = as_generator(seed)
        node_rngs = spawn_generators(self._rng, self.n)
        self.failures = failures
        self._failure_state = (
            FailureState(failures, self.n) if failures is not None else None
        )
        if failures is not None and failures.message_loss > 0.0:
            # Spawned (not drawn) from the master stream, so enabling loss
            # leaves every other random decision — node seeds, epoch
            # orders — bit-identical to a loss-free run.
            self.protocol.configure_loss(
                failures.message_loss, spawn_generators(self._rng, 1)[0]
            )
        self.nodes: List[EgoistNode] = [
            EgoistNode(
                i,
                policy,
                k,
                epsilon=epsilon,
                rewire_mode=rewire_mode,
                seed=node_rngs[i],
            )
            for i in range(self.n)
        ]
        self.wiring = GlobalWiring(self.n)
        self.history = EngineHistory()
        self._previous_active: Set[int] = set()
        #: Membership overrides from the live session-control API.  A
        #: forced-online node stays in the active set regardless of the
        #: churn schedule (a forced-offline one stays out) until the
        #: opposite request countermands it; failures still win, so an
        #: injected node-down kills even a forced joiner.
        self._forced_online: Set[int] = set()
        self._forced_offline: Set[int] = set()
        #: Live view of the last committed epoch (see :class:`EpochView`);
        #: None until the first epoch finishes.
        self.last_epoch_view: Optional[EpochView] = None
        if route_cache_size is None:
            route_cache_size = self.n
        self.route_cache: Optional[ResidualRouteCache] = (
            ResidualRouteCache(max_entries=int(route_cache_size))
            if route_cache_size
            else None
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _announced_metric(self) -> Metric:
        metric = self.provider.announced_metric()
        if self.cheating is not None:
            metric = CheatingModel(
                metric, self.cheating.free_riders, self.cheating.inflation_factor
            ).announced_metric()
        if self._failure_state is not None:
            # Down links — plus restored links still inside the
            # re-announce window — measure as disconnected.
            metric = mask_metric(
                metric, self._failure_state.announced_masked_links(self.clock.epoch)
            )
        return metric

    def _true_metric(self) -> Metric:
        metric = self.provider.true_metric()
        if self._failure_state is not None:
            # Ground truth unmasks the moment a link is restored.
            metric = mask_metric(metric, self._failure_state.truth_masked_links())
        return metric

    def _active_nodes(self) -> Set[int]:
        if self.churn is None:
            active = set(range(self.n))
        else:
            active = set(self.churn.active_at(self.clock.now))
        active |= self._forced_online
        active -= self._forced_offline
        if self._failure_state is not None:
            active -= self._failure_state.down_nodes
        return active

    def _handle_membership_change(self, active: Set[int]) -> None:
        departed = self._previous_active - active
        joined = active - self._previous_active
        for node_id in departed:
            self.nodes[node_id].go_offline()
            self.wiring.remove_wiring(node_id)
            self.bootstrap.deregister(node_id)
            self.protocol.purge(node_id)
        for node_id in joined:
            self.nodes[node_id].go_online()
            self.bootstrap.register(node_id)
        if departed:
            # Survivors holding links to departed nodes notice the drops.
            for node_id in active:
                node = self.nodes[node_id]
                if node.drop_neighbors(departed) and node.wiring is not None:
                    weights = self.wiring.weights_of(node_id)
                    for gone in departed:
                        weights.pop(gone, None)
                    self.wiring.set_wiring(node.wiring, weights)
        self._previous_active = set(active)

    def _enforce_link_failures(self, active: Set[int]) -> None:
        """Drop every currently-failed link from the overlay wiring.

        Mirrors the survivor-drop path of membership changes: each
        endpoint forgets the dead neighbour and its global wiring entry
        is rewritten through :meth:`GlobalWiring.set_wiring`, so the
        removal bumps the wiring version exactly like a churn departure.
        Re-applied every epoch because a structural policy (k-random) may
        re-adopt a masked link mid-epoch — the adoption costs the
        disconnection value and is dropped again here at the next epoch
        boundary.
        """
        state = self._failure_state
        if state is None or not state.down_links:
            return
        for u, v in sorted(state.down_links):
            for src, gone in ((u, v), (v, u)):
                if src not in active:
                    continue
                node = self.nodes[src]
                if node.wiring is None or gone not in node.wiring.neighbors:
                    continue
                if node.drop_neighbors({gone}) and node.wiring is not None:
                    weights = self.wiring.weights_of(src)
                    weights.pop(gone, None)
                    self.wiring.set_wiring(node.wiring, weights)

    # ------------------------------------------------------------------ #
    # Session-control mutations (the `repro serve` API)
    # ------------------------------------------------------------------ #
    # All of these only record intent; the overlay itself changes inside
    # the next begin_epoch, which the sequential and fused paths share —
    # so any mutation sequence is byte-identical on both, and a replay
    # that re-issues the same mutations before the same epochs reproduces
    # the served records exactly.

    def _check_node_ids(self, nodes) -> Set[int]:
        checked = set()
        for node in nodes:
            node = int(node)
            if not 0 <= node < self.n:
                raise ValidationError(f"node {node} out of range for n={self.n}")
            checked.add(node)
        return checked

    def request_join(self, nodes) -> None:
        """Force ``nodes`` into the active set from the next epoch on."""
        nodes = self._check_node_ids(nodes)
        self._forced_online |= nodes
        self._forced_offline -= nodes

    def request_leave(self, nodes) -> None:
        """Force ``nodes`` out of the active set from the next epoch on."""
        nodes = self._check_node_ids(nodes)
        self._forced_offline |= nodes
        self._forced_online -= nodes

    def reset_wiring(self, nodes) -> None:
        """Tear down ``nodes``'s overlay links (a re-wire request).

        The nodes stay online but forget their wiring, so each rebuilds
        from scratch at its next re-wiring opportunity.  The removals go
        through :meth:`GlobalWiring.remove_wiring`: a version bump, like
        any ordinary re-wire.
        """
        for node_id in sorted(self._check_node_ids(nodes)):
            node = self.nodes[node_id]
            if node.wiring is None:
                continue
            node.go_offline()
            node.go_online()
            self.wiring.remove_wiring(node_id)

    def inject_failure(self, event) -> None:
        """Schedule a :class:`FailureEvent` on the running engine.

        Engines without a configured failure schedule grow an empty one
        lazily, so live failure injection works on any deployment.
        """
        if self._failure_state is None:
            self._failure_state = FailureState(FailureSpec(), self.n)
        self._failure_state.schedule(event)

    def advance_provider(self, steps: int) -> None:
        """Advance substrate dynamics by ``steps`` extra drift steps."""
        steps = int(steps)
        if steps < 0:
            raise ValidationError("drift steps must be >= 0")
        if steps:
            self.provider.advance(steps)

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def begin_epoch(self) -> EpochPlan:
        """Start a wiring epoch: membership, metrics, and re-wiring order.

        Handles churn-driven membership changes, snapshots the announced
        and true metrics, and shuffles the active nodes into this epoch's
        re-wiring order.  The returned :class:`EpochPlan` is consumed by
        :meth:`step_node` / :meth:`finish_epoch`.
        """
        epoch = self.clock.epoch
        with telemetry.span("epoch.begin", epoch=epoch):
            if self._failure_state is not None:
                self._failure_state.advance_to(epoch)
            active = self._active_nodes()
            self._handle_membership_change(active)
            self._enforce_link_failures(active)
            announced = self._announced_metric()
            truth = self._true_metric()

            active_list = sorted(active)
            order = list(active_list)
            self._rng.shuffle(order)
            bits_before = self.protocol.stats.announcement_bits
            # Residual route values depend on the announced metric, the global
            # wiring, and the active membership; a token of the three keeps
            # cache entries valid exactly as long as nothing re-wires.
            metric_fp = (
                metric_fingerprint(announced) if self.route_cache is not None else None
            )
        return EpochPlan(
            epoch=epoch,
            active_list=active_list,
            active_key=tuple(active_list),
            active_rows=np.array(active_list, dtype=np.intp),
            announced=announced,
            truth=truth,
            order=order,
            bits_before=bits_before,
            metric_fp=metric_fp,
        )

    def step_node(self, plan: EpochPlan) -> bool:
        """Run the next node's re-wiring opportunity of ``plan``.

        Returns whether the node actually re-wired.  The residual graph is
        lazy: on a route-cache hit (quiescent epochs, or matrices injected
        by :class:`~repro.core.engine_batch.EngineBatch`) it is never
        built; a stale entry is a miss and the evaluator sweeps afresh.
        """
        node_id = plan.order[plan.pos]
        plan.pos += 1
        node = self.nodes[node_id]
        residual = _LazyResidualGraph(self.wiring, node_id, plan.active_list)
        candidates = [c for c in plan.active_list if c != node_id]
        if self.route_cache is not None:
            self.route_cache.set_token(
                (self.wiring.version, plan.metric_fp, plan.active_key)
            )
        evaluator = WiringEvaluator(
            node=node_id,
            metric=plan.announced,
            residual_graph=residual,
            candidates=candidates,
            preferences=self.preferences,
            destinations=candidates,
            route_cache=self.route_cache,
        )
        decision = node.consider_rewiring(
            plan.announced,
            residual,
            plan.active_list,
            preferences=self.preferences,
            evaluator=evaluator,
        )
        self.announce(plan, node_id)
        if decision.rewired:
            plan.rewirings += 1
        return decision.rewired

    def announce(self, plan: EpochPlan, node_id: int) -> None:
        """The adoption tail of a re-wiring opportunity, decided anyhow.

        Re-install ``node_id``'s wiring at this epoch's announced weights
        (a version bump only if a weight or the wiring moved) and flood
        it to the active nodes.  A node without a wiring stays silent.
        """
        wiring = self.nodes[node_id].wiring
        if wiring is None:
            return
        row = plan.announced.link_weight_row(node_id)
        weights = {v: float(row[v]) for v in wiring.neighbors}
        self.wiring.set_wiring(wiring, weights)
        self.protocol.broadcast(
            node_id, weights, active=plan.active_rows, timestamp=self.clock.now
        )

    def finish_epoch(
        self,
        plan: EpochPlan,
        *,
        route_values: Optional[np.ndarray] = None,
        distances: Optional[np.ndarray] = None,
    ) -> EpochRecord:
        """Score the finished epoch and advance the clock and substrate.

        ``route_values`` (per-active-node routing values over the built
        overlay, in ``active_list`` order) and ``distances`` (the
        all-pairs shortest-cost matrix the efficiency metric reduces)
        are optional precomputed inputs — the lockstep batch scores all
        its deployments' epochs through stacked sweeps and hands the
        slices in, bit-identical to the sweeps below.  Running
        sequentially, an additive-metric epoch that needs the efficiency
        metric derives both from a single sweep instead of two.
        """
        with telemetry.span("epoch.finish", epoch=plan.epoch):
            graph = None
            if route_values is None or (self.compute_efficiency and distances is None):
                graph = self.wiring.to_graph(active=plan.active_list)
            if (
                self.compute_efficiency
                and distances is None
                and not plan.truth.maximize
            ):
                # One all-pairs sweep serves both the cost objective (its
                # active rows are exactly the multi-source sweep's rows) and
                # the efficiency reduction.
                distances = all_pairs_shortest_costs(graph)
                if route_values is None:
                    route_values = distances[plan.active_rows]
            if route_values is None:
                route_values = plan.truth.route_values_rows(graph, plan.active_list)
            costs = plan.truth.all_node_costs(
                graph,
                self.preferences,
                nodes=plan.active_list,
                destinations=plan.active_list,
                route_values=route_values,
            )
            mean_cost = float(np.mean(list(costs.values()))) if costs else float("nan")
            social = float(np.sum(list(costs.values()))) if costs else float("nan")
            efficiency = (
                overlay_efficiency(graph, active=plan.active_list, distances=distances)
                if self.compute_efficiency
                else float("nan")
            )
            routes_stuck = self._count_stuck_routes(plan, route_values)
            record = EpochRecord(
                epoch=plan.epoch,
                time=self.clock.now,
                active_nodes=len(plan.active_list),
                rewirings=plan.rewirings,
                mean_cost=mean_cost,
                mean_efficiency=efficiency,
                social_cost=social,
                linkstate_bits=self.protocol.stats.announcement_bits - plan.bits_before,
                routes_stuck=routes_stuck,
            )
            self.history.records.append(record)
            served = np.full(
                (self.n, self.n), 0.0 if plan.truth.maximize else np.inf
            )
            served[plan.active_rows] = route_values
            self.last_epoch_view = EpochView(
                epoch=plan.epoch,
                version=self.wiring.version,
                active_list=list(plan.active_list),
                announced=plan.announced,
                route_values=served,
            )
            self.clock.advance(self.clock.epoch_length)
            self.provider.advance(1)
        telemetry.count("engine.epochs")
        return record

    def _count_stuck_routes(
        self, plan: EpochPlan, route_values: Optional[np.ndarray]
    ) -> int:
        """Ordered active pairs whose route is dead at epoch end.

        A pure (vectorised) reduction of the same route-value matrix the
        cost scoring consumes, so the fused and sequential paths agree
        bit for bit.  "Dead" means non-finite (unreachable) or at/beyond
        the disconnection value — any path crossing a masked failed link
        sums past :data:`~repro.core.cost.DISCONNECTION_COST` (minimised
        metrics) or bottlenecks at zero bandwidth (maximised ones).  The
        diagonal is excluded explicitly: self-routes are not routes (and
        the bandwidth metric prices them at infinity).
        """
        if route_values is None or len(plan.active_list) < 2:
            return 0
        values = np.asarray(route_values)[:, plan.active_rows]
        offdiag = np.ones(values.shape, dtype=bool)
        np.fill_diagonal(offdiag, False)
        if plan.truth.maximize:
            stuck = offdiag & (~np.isfinite(values) | (values <= 0.0))
        else:
            stuck = offdiag & (
                ~np.isfinite(values) | (values >= DISCONNECTION_COST)
            )
        return int(stuck.sum())

    def step_span(self, plan: EpochPlan, count: Optional[int] = None) -> int:
        """Consume up to ``count`` re-wiring opportunities of ``plan``.

        The shardable unit of an epoch: a worker holding the engine can
        run a contiguous span of the plan's opportunity order and hand
        the plan back (``plan.pos`` tracks progress), so an epoch can be
        cut into spans without changing a single decision —
        ``step_span(plan)`` with no count drains the epoch exactly as
        ``run_epoch`` does.  Returns the number of re-wirings the span
        performed.
        """
        if count is not None and count < 0:
            raise ValidationError("span count must be >= 0")
        before = plan.rewirings
        pos_before = plan.pos
        remaining = len(plan.order) - plan.pos if count is None else count
        with telemetry.span("epoch.steps", epoch=plan.epoch):
            while remaining > 0 and not plan.done:
                self.step_node(plan)
                remaining -= 1
        telemetry.count("engine.steps", plan.pos - pos_before)
        telemetry.count("engine.rewirings", plan.rewirings - before)
        return plan.rewirings - before

    def run_epoch(self) -> EpochRecord:
        """Simulate one wiring epoch and return its summary record."""
        plan = self.begin_epoch()
        self.step_span(plan)
        return self.finish_epoch(plan)

    def run(self, epochs: int) -> EngineHistory:
        """Simulate ``epochs`` wiring epochs and return the history."""
        for _ in range(int(epochs)):
            self.run_epoch()
        return self.history

    # ------------------------------------------------------------------ #
    # Evaluation helpers
    # ------------------------------------------------------------------ #
    def current_graph(self, *, active_only: bool = True):
        """The overlay graph induced by the current wiring."""
        active = sorted(self._active_nodes()) if active_only else None
        return self.wiring.to_graph(active=active)

    def node_costs(self, *, use_true_metric: bool = True) -> Dict[int, float]:
        """Per-node costs of the current overlay."""
        metric = self._true_metric() if use_true_metric else self._announced_metric()
        active = sorted(self._active_nodes())
        graph = self.wiring.to_graph(active=active)
        return metric.all_node_costs(
            graph, self.preferences, nodes=active, destinations=active
        )
