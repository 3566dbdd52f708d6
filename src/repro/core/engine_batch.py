"""Lockstep execution of several epoch-driven engine deployments.

The paper's epoch-loop experiments (Figures 2-4's engine runs) sweep many
*independent* :class:`~repro.core.engine.EgoistEngine` deployments — one
per (policy, k) pair, or per churn rate — over one underlay.  Running them
one after another leaves the stacked kernels of :mod:`repro.core.lockstep`
idle: every re-wiring opportunity pays its own residual graph
construction and its own multi-source sweep.

:class:`EngineBatch` advances the deployments epoch by epoch in lockstep
and *prefills* the residual route-value matrices the upcoming re-wiring
opportunities will ask for:

* additive metrics (delay, load) on small overlays stack the ``(engine,
  node)`` residual weight matrices of all engines' next waves into one
  block-diagonal CSR Dijkstra call
  (:func:`repro.core.lockstep.batched_route_matrices`) and park the
  results in each engine's
  :class:`~repro.core.route_cache.ResidualRouteCache`;
* additive metrics from :data:`_MAINTAIN_MIN_ACTIVE` active nodes up
  keep **one all-pairs matrix of the current overlay per engine**: a
  node's residual graph differs from the overlay in its own out-links
  only and one re-wire changes one node's out-links, so both the
  residual rows and the matrix update after a re-wire are sparse exact
  repairs (:func:`repro.routing.shortest_path.repair_shortest_rows`)
  instead of n-source sweeps.  The derived residual is *streamed*: it
  lives in one slot of the lockstep state until this round's fused step
  has read it, and never enters the route cache — n cached residuals
  are n all-pairs matrices (O(n^3) floats), every one dead at the next
  re-wire, while matrix + repair tables + one residual are O(n^2);
* the bandwidth metric goes through
  :func:`repro.core.lockstep.fill_bandwidth_residuals` (per-node
  closures, or one avoid-one pass once a quiet streak makes whole-round
  speculation worthwhile), again into the cache.

What a cached residual bought in a quiet epoch — a node whose inputs
did not move need not recompute anything — is kept as what it was a
proxy for: a *settled stamp* per node, the cache-validity token its
last fused step ended under when that step did not re-wire.  While the
live token equals the stamp the node's best response is known to be
"stay", so the round skips its prefill and its kernel call and runs
only the adoption tail (:meth:`_LockstepState.is_settled`; counted
``batch.steps.skipped``).  At equilibrium nobody re-wires, so a steady
epoch of any fusable engine costs n adoption tails and no kernel.

Wave sizes adapt per engine exactly like the deployment batch: they grow
while nothing re-wires (:func:`repro.core.lockstep.wave_cap`) and fall
back to single-step lookahead the moment a re-wire falsifies the
speculative chain.

The re-wiring opportunities themselves run through the one fused kernel,
:func:`repro.core.lockstep.fused_best_response`, at any membership (it
pads churned-down engines to the group's widest member); only the
adoption rule — the node's BR(ε) plus the link-state broadcast — lives
here.  Join/leave events between epochs re-derive the active mask
instead of rebuilding the batch.  Below the maintained planner's floor
a cached residual is valid under the cache's current token or the next
stacked sweep recomputes it; nothing patches a stale matrix (measured:
at most 1.3% of lookups, 0.19% of Dijkstra rows).

Byte identity
-------------
The engines themselves are untouched: every step runs
:meth:`EgoistEngine.step_node`, which consumes the same RNG streams and
applies the same decision rules whether its evaluator's matrices come from
the cache or from a fresh sweep — and the injected matrices are bitwise
identical to the sweeps they replace (selections and block-separated
Dijkstra runs, no arithmetic reordering).  A settled node's skipped
step is exact for the same reason a cache hit is: the token covers
every input of the verdict.  ``batched=False`` does not
prefill at all: it runs each engine's ``run(epochs)`` sequentially, i.e.
today's engine byte-for-byte, which is the parity anchor and the
benchmark baseline (``benchmarks/test_bench_engine_batch.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.churn.models import ChurnSchedule
from repro.core.best_response import should_rewire
from repro.core.cheating import CheatingModel
from repro.core.engine import EgoistEngine, EngineHistory, EpochPlan, EpochRecord
from repro.core.failures import FailureSpec
from repro.core.lockstep import (
    Member,
    batched_route_matrices,
    fill_bandwidth_residuals,
    fusable,
    fused_best_response,
    wave_cap,
)
from repro.core.node import RewireMode
from repro.core.policies import NeighborSelectionPolicy
from repro.core.providers import MetricProvider
from repro.core.wiring import Wiring
from repro.routing.shortest_path import (
    repair_shortest_rows,
    screen_shortest_repair,
    shortest_inbound_tables,
)
from repro.telemetry import runtime as telemetry
from repro.util.rng import SeedLike
from repro.util.validation import ValidationError

#: Stacked-node cap per block-diagonal Dijkstra call.  The engine batch
#: stacks many *small* residual problems per round, where the call's dense
#: ``(blocks*n)^2`` distance output — not the Dijkstra itself — dominates;
#: a tighter cap than the deployment sweep's keeps that output near 8 MB.
_ENGINE_BLOCK_NODES = 1024

#: Active-membership floor of the maintained all-pairs planner.  From
#: here up, deriving a residual from the engine's all-pairs matrix (and
#: updating that matrix after a re-wire) by sparse repair beats a fresh
#: n-source sweep per opportunity — measured break-even near n = 50,
#: 1.8x at n = 100, 3.3x at n = 200.  Below it the stacked speculative
#: sweeps, which also amortise many engines in one C call, keep the job.
_MAINTAIN_MIN_ACTIVE = 64


@dataclass
class EngineSpec:
    """One epoch-driven deployment of an engine sweep.

    The fields mirror :class:`~repro.core.engine.EgoistEngine`'s
    constructor.  Give every spec its own ``seed`` stream (e.g. via
    :func:`repro.util.rng.spawn_generators`) and its own provider; the
    batched and sequential paths then consume identical draws per
    deployment regardless of epoch interleaving.
    """

    label: str
    provider: MetricProvider
    policy: NeighborSelectionPolicy
    k: int
    epoch_length: float = 60.0
    announce_interval: float = 20.0
    churn: Optional[ChurnSchedule] = None
    cheating: Optional[CheatingModel] = None
    failures: Optional[FailureSpec] = None
    epsilon: float = 0.0
    rewire_mode: RewireMode = RewireMode.DELAYED
    preferences: Optional[np.ndarray] = None
    compute_efficiency: bool = False
    route_cache_size: Optional[int] = None
    seed: SeedLike = None

    def build_engine(self) -> EgoistEngine:
        """Construct the deployment's engine."""
        return EgoistEngine(
            self.provider,
            self.policy,
            self.k,
            epoch_length=self.epoch_length,
            announce_interval=self.announce_interval,
            churn=self.churn,
            cheating=self.cheating,
            failures=self.failures,
            epsilon=self.epsilon,
            rewire_mode=self.rewire_mode,
            preferences=self.preferences,
            compute_efficiency=self.compute_efficiency,
            route_cache_size=self.route_cache_size,
            seed=self.seed,
        )


class _LockstepState:
    """Per-engine bookkeeping of one lockstep epoch."""

    __slots__ = (
        "engine",
        "plan",
        "wave",
        "dense",
        "hops_key",
        "hops_rows",
        "version",
        "fusable",
        "pending",
        "active_set",
        "maintained",
        "apsp",
        "apsp_stale",
        "streamed",
        "settled",
        "_tables",
        "_tables_version",
    )

    def __init__(self, engine: EgoistEngine):
        self.engine = engine
        self.plan: Optional[EpochPlan] = None
        self.wave = 1
        self.dense: Optional[np.ndarray] = None
        self.hops_key: Dict[int, Tuple[int, ...]] = {}
        self.hops_rows: Dict[int, np.ndarray] = {}
        self.version = -1
        self.fusable = False
        #: Speculative cache entries not yet consumed: node -> the
        #: predicted token the entry was stamped with.
        self.pending: Dict[int, Tuple] = {}
        self.active_set: frozenset = frozenset()
        #: Whether this epoch's residuals come from :attr:`apsp` (the
        #: maintained planner) rather than stacked speculative sweeps.
        self.maintained = False
        #: All-pairs distances over :attr:`dense` as it stood before the
        #: nodes in :attr:`apsp_stale` changed their out-links (None:
        #: not built, or invalidated).
        self.apsp: Optional[np.ndarray] = None
        self.apsp_stale: set = set()
        #: The maintained planner's one live residual: the next node's
        #: rows, derived in this round's prefill and consumed by this
        #: round's fused step — never stored in the route cache.
        self.streamed: Optional[np.ndarray] = None
        #: node -> the token its last fused step ended under, if that
        #: step did not re-wire.  While the live token still equals the
        #: stamp, every input of the node's best response is unchanged
        #: and so is the verdict ("stay"): see :meth:`is_settled`.
        self.settled: Dict[int, Tuple] = {}
        #: Shared repair tables over the current dense wiring, keyed by
        #: the wiring version they were built at.
        self._tables = None
        self._tables_version = -1

    # ------------------------------------------------------------------ #
    def begin_epoch(self) -> None:
        self.plan = self.engine.begin_epoch()
        self.hops_key.clear()
        self.hops_rows.clear()
        self.pending.clear()
        self.streamed = None
        # Membership (and with it the dense matrix) can change without a
        # version bump, so the shared tables never survive an epoch.
        self._tables = None
        self._tables_version = -1
        self.active_set = frozenset(self.plan.active_list)
        before = self.dense
        self._rebuild_dense()
        self.version = self.engine.wiring.version
        self.wave = 1
        self.maintained = (
            not self.plan.announced.maximize
            and self.engine.route_cache is not None
            and len(self.plan.active_list) >= _MAINTAIN_MIN_ACTIVE
        )
        # The all-pairs matrix is a function of the dense overlay alone,
        # so it survives the epoch boundary exactly when that did: churn,
        # failure injection and wiring resets all show up as a different
        # matrix, whatever they did to versions and fingerprints.
        if not self.maintained or (
            self.apsp is not None
            and not np.array_equal(before, self.dense, equal_nan=True)
        ):
            self.apsp = None
            self.apsp_stale.clear()
        # Engines the kernel does not replicate (see lockstep.fusable), or
        # with a disabled route cache, step through their own evaluator.
        # Join/leave events between epochs only re-derive this mask (via
        # the re-begun plan's active list); the batch and its states
        # persist.
        self.fusable = self.engine.route_cache is not None and fusable(
            self.engine.policy, self.engine.k, len(self.plan.active_list) - 1
        )

    def _rebuild_dense(self) -> None:
        """Dense announced-weight matrix of the active wiring (NaN absent)."""
        n = self.engine.n
        dense = np.full((n, n), np.nan)
        active_set = self.active_set
        for node in self.plan.active_list:
            for v, w in self.engine.wiring.weights_of(node).items():
                if v in active_set:
                    dense[node, v] = w
        self.dense = dense

    def derive_residual(self, node: int) -> np.ndarray:
        """``node``'s residual route values, from the all-pairs matrix.

        The maintained planner: one all-pairs matrix of the current
        overlay is kept per engine — swept once, then brought up to date
        after each re-wire (or in-place weight refresh) by
        :func:`repair_shortest_rows` with the re-wired node as the
        change — and ``node``'s residual graph differs from the overlay
        in ``node``'s own out-links only, so its rows are the same
        kernel's ``changed={node}, exclude=node`` repair.  Both are
        bit-identical to the fresh sweeps they replace.  The kernel
        itself re-sweeps an update too widespread to relax (counted as
        *refused*).
        """
        tables = self.repair_tables()
        sources = np.arange(self.engine.n)
        if self.apsp is None:
            telemetry.count("batch.prefill.swept")
            self.apsp = batched_route_matrices(
                self.dense[None], maximize=False, block_nodes=_ENGINE_BLOCK_NODES
            )[0]
        elif self.apsp_stale:
            screen = screen_shortest_repair(
                self.apsp, sources, self.apsp_stale, tables
            )
            telemetry.count(
                "batch.prefill.refused" if screen.sweeps else "batch.prefill.updated"
            )
            self.apsp = repair_shortest_rows(
                self.apsp, sources, self.apsp_stale, None,
                tables=tables, screen=screen,
            )
        self.apsp_stale.clear()
        telemetry.count("batch.prefill.derived")
        rows = repair_shortest_rows(
            self.apsp, sources, (node,), None, exclude=node, tables=tables
        )
        return rows[self.hops_rows[node]]

    def hops_of(self, node: int) -> Tuple[int, ...]:
        """The node's candidate first hops, in evaluator (sorted) order."""
        key = self.hops_key.get(node)
        if key is None:
            hops = [c for c in self.plan.active_list if c != node]
            key = tuple(hops)
            self.hops_key[node] = key
            self.hops_rows[node] = np.array(hops, dtype=int)
        return key

    def token(self) -> Tuple:
        """The cache token :meth:`EgoistEngine.step_node` will stamp."""
        return (self.engine.wiring.version, self.plan.metric_fp, self.plan.active_key)

    def step(self) -> None:
        """Advance one re-wiring opportunity; adapt the wave to the outcome."""
        node = self.plan.order[self.plan.pos]
        rewired = self.engine.step_node(self.plan)
        self.after_step(node, rewired)

    def is_settled(self) -> bool:
        """Whether the next node's best response is already known: "stay".

        A fused step's verdict is a pure function of the node's residual
        rows, its announced direct row, its preferences, k, its incumbent
        wiring and the search cap — all of which stand while the token
        the engine trusts for cache validity does (the node's own weight
        refresh lies outside its residual, and the stamp is read after
        it).  So a node that stayed put under a token and meets the same
        token again stays put again, without a residual or a kernel call:
        the read-set check of a version-stamped result, kept per node in
        place of the residual matrix that used to stand in for it.
        """
        plan = self.plan
        return self.fusable and self.settled.get(plan.order[plan.pos]) == self.token()

    def adopt(self, rewired: bool) -> None:
        """The adoption tail of a fused (or settled) step.

        What :meth:`EgoistEngine.step_node` does after the node decided
        (:meth:`EgoistEngine.announce`), then the lockstep bookkeeping —
        and, if the node stayed put, the stamp :meth:`is_settled` checks.
        (Stamps of re-wired nodes need no removal: versions only grow, so
        a stale stamp never matches again.)
        """
        plan = self.plan
        node = plan.order[plan.pos]
        plan.pos += 1
        self.engine.announce(plan, node)
        if rewired:
            plan.rewirings += 1
        self.after_step(node, rewired)
        if not rewired:
            self.settled[node] = self.token()

    def after_step(self, node: int, rewired: bool) -> None:
        """Dense/wave/speculation bookkeeping after ``node``'s step ran."""
        self.pending.pop(node, None)
        version_changed = self.engine.wiring.version != self.version
        if version_changed:
            self.version = self.engine.wiring.version
            row = self.dense[node]
            row[:] = np.nan
            active_set = self.active_set
            for v, w in self.engine.wiring.weights_of(node).items():
                if v in active_set:
                    row[v] = w
            if self.apsp is not None:
                self.apsp_stale.add(node)
        if rewired:
            self._drop_pending()
        if rewired or (version_changed and self.plan.announced.maximize):
            # Under sustained re-wiring a planned-ahead entry is usually
            # falsified (dropped, then recomputed by the next stacked
            # sweep) before it is consumed, so a re-wire sends the chain
            # back to single-step lookahead until a quiet streak re-earns
            # the deeper pipeline.  For bandwidth even an in-place weight
            # refresh resets: its prefill does not speculate, and a
            # wasted wave member costs a full n^3 closure.
            self.wave = 1
        else:
            self.wave = min(self.wave + 1, wave_cap(self.plan.announced.maximize))

    def _drop_pending(self) -> None:
        """Drop the speculative entries a re-wire falsified: all of them.

        Each was computed assuming the node would refresh its weights in
        place, and the re-wire bumped the version by the same one step,
        so its predicted token WILL match the live one: none may stay.
        """
        cache = self.engine.route_cache
        for other in self.pending:
            cache.drop(other)
        self.pending.clear()

    def repair_tables(self):
        """Shared repair tables over the current dense wiring (cached).

        The maintained planner's (additive) tables, rebuilt whenever
        the wiring version moves.
        """
        version = self.engine.wiring.version
        if self._tables is None or self._tables_version != version:
            self._tables = shortest_inbound_tables(self.dense)
            self._tables_version = version
        return self._tables


class EngineBatch:
    """A sweep of independent epoch-driven deployments over one underlay.

    Parameters
    ----------
    specs:
        The deployments, all over providers of the same size.  Mixed
        metric families are allowed (prefills group by objective
        direction).
    batched:
        ``True`` (default) advances the engines in lockstep with shared
        residual route-value prefills; ``False`` runs each engine's
        ``run(epochs)`` sequentially — today's engine byte-for-byte.
        Both produce bit-identical epoch histories.
    """

    def __init__(self, specs: Sequence[EngineSpec], *, batched: bool = True):
        specs = list(specs)
        if not specs:
            raise ValidationError("an EngineBatch needs at least one spec")
        sizes = {spec.provider.size for spec in specs}
        if len(sizes) != 1:
            raise ValidationError(
                f"all deployments must share one overlay size, got {sorted(sizes)}"
            )
        self.specs: List[EngineSpec] = specs
        self.batched = bool(batched)
        self.n = specs[0].provider.size
        self.engines: List[EgoistEngine] = [spec.build_engine() for spec in specs]
        self._states: Optional[List[_LockstepState]] = None

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Serve checkpoints pickle the batch between epochs.  The
        # lockstep states hold nothing an epoch cannot re-derive (every
        # begin_epoch resets them; the all-pairs matrices are caches),
        # and a pickled one may have been laid out by older code — so a
        # restored batch rebuilds them.
        self.__dict__.update(state)
        self._states = None

    # ------------------------------------------------------------------ #
    def step_epoch(self) -> List[EpochRecord]:
        """Advance every deployment by exactly one epoch.

        The single execution planner both the batch ``run()`` loop and
        the live serve scheduler step: batched, one lockstep epoch with
        shared prefills; sequential, one ``run_epoch`` per engine.  The
        deployments are mutually independent (own RNG streams, own
        providers), so per-epoch interleaving of the sequential engines
        is byte-identical to running each engine's epochs back to back.
        Records come back in spec order.
        """
        if self.batched:
            return self.run_epoch()
        return [engine.run_epoch() for engine in self.engines]

    def run(self, epochs: int) -> List[EngineHistory]:
        """Simulate ``epochs`` wiring epochs per deployment."""
        for _ in range(int(epochs)):
            self.step_epoch()
        return [engine.history for engine in self.engines]

    def run_epoch(self) -> List[EpochRecord]:
        """Advance every deployment by one wiring epoch, in lockstep.

        The lockstep states persist across epochs: churn-driven join and
        leave events between epochs re-derive each engine's active-node
        mask (and with it the padded fused-kernel layout) inside
        ``begin_epoch`` instead of rebuilding any batch structure.
        """
        if self._states is None:
            self._states = [_LockstepState(engine) for engine in self.engines]
        states = self._states
        with telemetry.span("batch.begin"):
            for st in states:
                st.begin_epoch()
        live = [st for st in states if not st.plan.done]
        while live:
            # Engines whose next node is settled need neither a residual
            # nor the kernel this round, only the adoption tail.
            settled: List[_LockstepState] = []
            stepping: List[_LockstepState] = []
            for st in live:
                (settled if st.is_settled() else stepping).append(st)
            with telemetry.span("batch.prefill"):
                self._prefill(stepping)
            # Fused groups must share the full objective convention —
            # direction AND disconnection value — since the broadcast
            # clamps use one value for the whole group; a fusable engine
            # whose matrix is somehow uncached falls back to its own step.
            # A maintained engine's residual was streamed by the prefill
            # and never touches its cache; any other fusable engine's is
            # fetched here and handed to the fused step, so its cache
            # sees exactly one lookup per opportunity (hit/miss stats
            # stay comparable with the sequential path).
            groups: Dict[Tuple[bool, float], List[Tuple[_LockstepState, np.ndarray]]] = {}
            fallback: List[_LockstepState] = []
            for st in stepping:
                node = st.plan.order[st.plan.pos]
                if not st.fusable:
                    resid = None
                elif st.maintained:
                    resid = st.streamed
                else:
                    resid = st.engine.route_cache.get(node, st.hops_of(node))
                if resid is not None:
                    metric = st.plan.announced
                    key = (bool(metric.maximize), float(metric.unreachable_value))
                    groups.setdefault(key, []).append((st, resid))
                else:
                    fallback.append(st)
            # The step ledger: opportunities served by the broadcast
            # kernels, by engines stepping their own path, or by no
            # computation at all.
            telemetry.count(
                "batch.steps.fused", sum(len(members) for members in groups.values())
            )
            telemetry.count("batch.steps.sequential", len(fallback))
            telemetry.count("batch.steps.skipped", len(settled))
            with telemetry.span("batch.steps"):
                for st in settled:
                    st.adopt(rewired=False)
                for group in groups.values():
                    self._fused_engine_steps(group)
                for st in fallback:
                    st.step()
            live = [st for st in live if not st.plan.done]
        with telemetry.span("batch.finish"):
            return self._finish_epochs(states)

    def _finish_epochs(self, states: Sequence[_LockstepState]) -> List[EpochRecord]:
        """Score every deployment's finished epoch through stacked sweeps.

        The epoch record needs each engine's routing values over its
        *built* overlay (the true-metric cost objective) and, for churn
        experiments, the all-pairs distance matrix behind the efficiency
        metric.  Both are the same multi-source sweeps the re-wiring
        prefills already stack, so one block-diagonal Dijkstra serves
        every additive scoring (and every bandwidth deployment's
        efficiency distances), and one closure pass per bandwidth
        deployment serves its bottleneck values — handed to
        :meth:`EgoistEngine.finish_epoch`, which consumes them exactly
        where its own (bit-identical) sweeps would run.
        """
        # Engines needing an additive all-pairs matrix: every additive
        # deployment (costs + possibly efficiency), plus bandwidth
        # deployments that compute efficiency (defined over shortest
        # distances whatever the metric family).
        additive = [
            st
            for st in states
            if not st.plan.truth.maximize or st.engine.compute_efficiency
        ]
        distance_of: Dict[int, np.ndarray] = {}
        if additive:
            stack = np.stack([st.dense for st in additive])
            matrices = batched_route_matrices(
                stack, maximize=False, block_nodes=_ENGINE_BLOCK_NODES
            )
            for st, matrix in zip(additive, matrices):
                distance_of[id(st)] = matrix
        bandwidth = [st for st in states if st.plan.truth.maximize]
        closure_of: Dict[int, np.ndarray] = {}
        if bandwidth:
            stack = np.stack([st.dense for st in bandwidth])
            matrices = batched_route_matrices(
                stack, maximize=True, block_nodes=_ENGINE_BLOCK_NODES
            )
            for st, matrix in zip(bandwidth, matrices):
                closure_of[id(st)] = matrix
        records = []
        for st in states:
            active_rows = st.plan.active_rows
            if st.plan.truth.maximize:
                route_values = closure_of[id(st)][active_rows]
            else:
                route_values = distance_of[id(st)][active_rows]
            distances = distance_of.get(id(st)) if st.engine.compute_efficiency else None
            records.append(
                st.engine.finish_epoch(
                    st.plan, route_values=route_values, distances=distances
                )
            )
        return records

    # ------------------------------------------------------------------ #
    # Residual route-value prefills
    # ------------------------------------------------------------------ #
    def _prefill(self, live: Sequence[_LockstepState]) -> None:
        """Inject residual matrices for each engine's next wave of nodes.

        Bandwidth entries are computed from the engine's *current* wiring
        and stamped with the current token, so a mid-wave wiring change
        simply stops later entries from matching and the engine falls
        back to its own (bitwise-identical) sweep.  Additive entries are
        *speculative*: within an epoch the announced metric is fixed, so
        the in-place weight refresh each step performs is predictable as
        long as the node does not re-wire — the planner simulates those
        refreshes (including the wiring-version bumps they cause) and
        stamps each entry with the token of the state it will be valid
        under.  A re-wire falsifies the chain; :meth:`_LockstepState.after_step`
        then drops the not-yet-consumed entries before any step could
        match one against a wrong wiring, and the next round's stacked
        sweep recomputes them.  Engines on the maintained planner do not
        speculate, and the fused ones among them do not touch the cache
        at all: their next node's rows are derived from the all-pairs
        matrix (:meth:`_LockstepState.derive_residual`) and left in
        :attr:`_LockstepState.streamed` for this round's step.  ``live``
        holds only the engines that step this round; settled ones were
        taken out by :meth:`run_epoch`.
        """
        jobs: List[Tuple[_LockstepState, int, Tuple, np.ndarray]] = []
        for st in live:
            cache = st.engine.route_cache
            if cache is None:
                continue
            cache.set_token(st.token())
            plan = st.plan
            if plan.announced.maximize:
                missing = [
                    node
                    for node in plan.order[plan.pos : plan.pos + st.wave]
                    if (hops := st.hops_of(node)) and cache.get(node, hops) is None
                ]
                if missing:
                    # Past the closure cutoff nothing is prefilled: the
                    # engine's own auto-mode sweep (bitwise identical) runs.
                    fill_bandwidth_residuals(
                        cache,
                        st.dense,
                        missing,
                        plan.active_list,
                        lambda node: (st.hops_of(node), st.hops_rows[node]),
                    )
                continue
            # Replan only when the speculative chain ran dry (or broke):
            # while the next node's entry is valid the earlier plan
            # already covers this round and the walk would be pure
            # overhead.
            next_node = plan.order[plan.pos]
            next_hops = st.hops_of(next_node)
            if not next_hops:
                continue
            if st.maintained:
                # The all-pairs matrix is at most one re-wire behind.
                # A fused step is the residual's only reader, so
                # it is streamed to it (n cached residuals would be n
                # all-pairs matrices, dead at the next re-wire; the
                # quiet-epoch reuse they bought is the settled stamp).
                # An engine on its own stepping path reads the cache.
                if st.fusable:
                    st.streamed = st.derive_residual(next_node)
                elif cache.get(next_node, next_hops) is None:
                    cache.put(next_node, next_hops, st.derive_residual(next_node))
                continue
            if cache.get(next_node, next_hops) is not None:
                continue
            jobs.extend(self._plan_speculative_jobs(st))
        if not jobs:
            return
        stack = np.stack([dense for (_st, _node, _token, dense) in jobs])
        matrices = batched_route_matrices(
            stack, maximize=False, block_nodes=_ENGINE_BLOCK_NODES
        )
        for (st, node, token, _dense), matrix in zip(jobs, matrices):
            st.engine.route_cache.put(
                node, st.hops_of(node), matrix[st.hops_rows[node], :], token=token
            )
            st.pending[node] = token

    def _plan_speculative_jobs(
        self, st: _LockstepState
    ) -> List[Tuple[_LockstepState, int, Tuple, np.ndarray]]:
        """Residual jobs for ``st``'s next wave under predicted refreshes.

        Walks the upcoming nodes simulating each step's weight re-install
        against the epoch's announced metric: the wiring version advances
        exactly when the refreshed weights differ (the same dict
        comparison :meth:`GlobalWiring.set_wiring` performs), and the
        predicted dense matrix tracks the refreshed rows.  Each returned
        job carries the dense snapshot and the cache token of its
        position in the chain.  A wave member whose entry is already
        valid — still pending under this very token, or cached under the
        live one — is not swept again.
        """
        engine = st.engine
        plan = st.plan
        cache = engine.route_cache
        fp = plan.metric_fp
        key = plan.active_key
        pred_version = engine.wiring.version
        pred_dense: Optional[np.ndarray] = None
        jobs: List[Tuple[_LockstepState, int, Tuple, np.ndarray]] = []
        for offset, node in enumerate(plan.order[plan.pos : plan.pos + st.wave]):
            hops = st.hops_of(node)
            if hops:
                token = (pred_version, fp, key)
                if offset == 0:
                    # The caller's replan check just missed this very
                    # node — re-probing would only skew the hit/miss
                    # statistics.
                    have = False
                else:
                    have = st.pending.get(node) == token
                    if not have and pred_version == engine.wiring.version:
                        have = cache.get(node, hops) is not None
                if not have:
                    dense = (pred_dense if pred_dense is not None else st.dense).copy()
                    dense[node, :] = np.nan
                    jobs.append((st, node, token, dense))
            # Simulate the node's in-place weight refresh (step_node
            # re-installs the current neighbours at announced weights).
            weights = engine.wiring.weights_of(node)
            if weights:
                row_weights = plan.announced.link_weight_row(node)
                new_weights = {v: float(row_weights[v]) for v in weights}
                if new_weights != weights:
                    pred_version += 1
                    if pred_dense is None:
                        pred_dense = st.dense.copy()
                    row = pred_dense[node]
                    row[:] = np.nan
                    for v, w in new_weights.items():
                        row[v] = w
        return jobs

    def _fused_engine_steps(
        self, group: Sequence[Tuple[_LockstepState, np.ndarray]]
    ) -> None:
        """One re-wiring opportunity per engine, through the shared kernel.

        ``group`` pairs each engine's lockstep state with the residual
        route-value matrix of its next node (streamed by the maintained
        planner, or fetched once from the route cache by the grouping
        pass in :meth:`run_epoch`).  Each becomes a
        :class:`~repro.core.lockstep.Member`;
        :func:`~repro.core.lockstep.fused_best_response` scores the whole
        group.  The adoption rule is the engine's
        (:meth:`~repro.core.node.EgoistNode.consider_rewiring`): BR(ε)
        with the *node's* epsilon, empty-wiring nodes adopting any
        different wiring, followed by :meth:`_LockstepState.adopt`.
        """
        metric = group[0][0].plan.announced
        members = []
        for st, resid in group:
            node = st.plan.order[st.plan.pos]
            ids = st.hops_rows[node]
            wiring = st.engine.nodes[node].wiring
            members.append(
                Member(
                    resid,
                    ids,
                    st.plan.announced.link_weight_row(node)[ids],
                    st.engine.preferences[node, ids],
                    st.engine.k,
                    wiring.neighbors if wiring is not None else (),
                    st.engine.policy.max_iterations,
                )
            )
        existing_cost, chosen, candidate_cost = fused_best_response(
            members,
            maximize=bool(metric.maximize),
            unreachable=metric.unreachable_value,
        )
        for d, ((st, _resid), member) in enumerate(zip(group, members)):
            plan = st.plan
            node = plan.order[plan.pos]
            eng_node = st.engine.nodes[node]
            new_neighbors = frozenset(chosen[d])
            old_neighbors = frozenset(member.incumbent)
            if old_neighbors:
                adopt = should_rewire(
                    plan.announced,
                    float(existing_cost[d]),
                    float(candidate_cost[d]),
                    eng_node.epsilon,
                )
            else:
                adopt = new_neighbors != old_neighbors
            rewired = bool(adopt and new_neighbors != old_neighbors)
            if rewired:
                eng_node.wiring = Wiring.of(node, new_neighbors)
                eng_node.rewire_count += 1
            st.adopt(rewired)
