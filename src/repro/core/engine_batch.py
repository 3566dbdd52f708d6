"""The lockstep driver, and the epoch-driven engine deployments it runs.

The paper's epoch-loop experiments (Figures 2-4's engine runs) sweep many
*independent* :class:`~repro.core.engine.EgoistEngine` deployments — one
per (policy, k) pair, or per churn rate — over one underlay.  Running them
one after another leaves the stacked kernels of :mod:`repro.core.lockstep`
idle: every re-wiring opportunity pays its own residual graph
construction and its own multi-source sweep.

The one lockstep driver (:class:`_LockstepDriver`) advances such
deployments — :class:`EngineBatch`'s engines, and the best-response
builds of :class:`~repro.core.deployment_batch.DeploymentBatch`, whose
rounds are epochs of owners that stand where an engine stands — epoch by
epoch in lockstep.  Each round plans the residual route-value matrix of
the node each stepping deployment steps, for the overlay as it stands,
and hands it straight to that step — a fused step, or an engine stepping
its own path (:meth:`EgoistEngine.step_node` with ``residual=``).
Nothing planned outlives its round.  Two planners compute them:

* additive metrics once the batch's additive engines together count
  :data:`_MAINTAIN_MIN_ACTIVE` active nodes keep **one all-pairs matrix
  of the current overlay per engine**: a node's residual graph differs
  from the overlay in its own out-links only and one re-wire changes one
  node's out-links, so both the residual rows and the matrix update
  after a re-wire are sparse exact repairs
  (:func:`repro.routing.shortest_path.repair_shortest_rows`) instead of
  n-source sweeps.  The repairs are stacked across the round's group
  (:meth:`_LockstepDriver._derive_residuals`): one build of the matrices
  not yet swept, one repair bringing every stale matrix up to date, one
  repair deriving every stepping engine's residual — at most two kernel
  calls per round, whatever the group's width.  The repairs read the
  group's repair tables, built once per epoch from the dense overlays
  and patched in the rows each round rewrote
  (:meth:`_LockstepDriver._group_tables`).  An engine holds its matrix
  and one residual, O(n^2), where n residuals would be O(n^3);
* every other stepping deployment — additive below the floor, or
  bandwidth — is one dense overlay with its node's row cleared, and the
  round's stack of them is swept by one
  :func:`repro.core.lockstep.batched_route_matrices` call per objective
  direction (:meth:`_LockstepDriver._sweep_residuals`): block-diagonal
  Dijkstra for additive metrics, max-min closures for bandwidth.

The engines' own route caches are the sequential tier's memo; nothing
here reads or writes them.

What a memoised residual bought in a quiet epoch — a node whose inputs
did not move need not recompute anything — is kept as what it was a
proxy for: a *settled stamp* per node, the residual-state token its
last fused step ended under when that step did not re-wire.  While the
live token equals the stamp the node's best response is known to be
"stay", so the round skips its prefill and its kernel call and runs
only the adoption tail (:meth:`_LockstepState.is_settled`; counted
``batch.steps.skipped``).  At equilibrium nobody re-wires, so a steady
epoch of any fusable engine costs n adoption tails and no kernel.

The re-wiring opportunities themselves run through the one fused kernel,
:func:`repro.core.best_response.fused_best_response`, at any membership (it
pads churned-down engines to the group's widest member); only the
adoption rule — the node's BR(ε), then its owner's adoption tail (an
engine's weight re-install and link-state broadcast) — lives here.
Join/leave events between epochs re-derive the active mask instead of
rebuilding the batch.

Byte identity
-------------
The owners themselves are untouched: every step runs their
``step_node`` or their adoption tail, which consume the
same RNG streams and apply the same decision rules whether a residual
was handed in or swept — and the planned matrices are bitwise
identical to the sweeps they replace (selections and block-separated
Dijkstra runs, no arithmetic reordering).  A settled node's skipped
step is exact because the token covers every input of the verdict.
``batched=False`` does not plan at all: it runs each engine's
``run(epochs)`` sequentially, i.e. today's engine byte-for-byte, which
is the parity anchor and the count baseline
(``tests/core/test_engine_batch.py::TestEpochSweepBudget``: 56 020
sequential Dijkstra rows against the lockstep sweep's 5 886).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.churn.models import ChurnSchedule
from repro.core.best_response import Member, fused_best_response, should_rewire
from repro.core.cheating import CheatingModel
from repro.core.engine import EgoistEngine, EngineHistory, EpochPlan, EpochRecord
from repro.core.failures import FailureSpec
from repro.core.lockstep import batched_route_matrices, fusable
from repro.core.policies import NeighborSelectionPolicy
from repro.core.providers import MetricProvider
from repro.core.wiring import Wiring
from repro.routing.shortest_path import (
    ShortestRepairTables,
    repair_shortest_rows,
    screen_shortest_repair,
    shortest_inbound_tables,
)
from repro.telemetry import runtime as telemetry
from repro.util.rng import SeedLike
from repro.util.validation import ValidationError

#: Stacked-node cap per block-diagonal Dijkstra call.  The lockstep driver
#: stacks many *small* residual problems per round, where the call's dense
#: ``(blocks*n)^2`` distance output — not the Dijkstra itself — dominates;
#: a tighter cap than the build sweep's scoring keeps that output near 8 MB.
_ENGINE_BLOCK_NODES = 1024

#: Floor of the maintained all-pairs planner, in active nodes stacked
#: over the batch's additive engines.  From here up, deriving residuals
#: from the engines' all-pairs matrices (and updating those after a
#: re-wire) by stacked sparse repairs beats fresh n-source sweeps: the
#: repair's fixed cost is paid once per round, not once per engine.
#: Measured in CPU-s on a 2-vCPU box, against stacked sweeps that still
#: planned residuals ahead: one 50-node engine under a ping metric took
#: 0.56-0.59 stacked against 0.64-0.80 maintained per 15 epochs (the
#: serve tick, so it stays below), one of 80 nodes gained 1.2x, seven
#: churned engines of 50 nodes 1.3x, and groups of 14- to 30-node
#: engines landed within 10% either way.  Below it the stacked sweep
#: keeps the job.
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
    preferences: Optional[np.ndarray] = None
    compute_efficiency: bool = False
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
            preferences=self.preferences,
            compute_efficiency=self.compute_efficiency,
            seed=self.seed,
        )


class _LockstepState:
    """Per-deployment bookkeeping of one lockstep epoch (``engine`` is the
    owner: an :class:`EgoistEngine`, or a build standing where one stands)."""

    __slots__ = (
        "engine",
        "plan",
        "dense",
        "_hop_rows",
        "version",
        "fusable",
        "active_set",
        "maintained",
        "apsp",
        "apsp_stale",
        "table_slot",
        "tables_stale",
        "settled",
    )

    def __init__(self, engine: EgoistEngine):
        self.engine = engine
        self.plan: Optional[EpochPlan] = None
        self.dense: Optional[np.ndarray] = None
        self._hop_rows: Dict[int, np.ndarray] = {}
        self.version = -1
        self.fusable = False
        self.active_set: frozenset = frozenset()
        #: Whether this epoch's residuals come from :attr:`apsp` (the
        #: maintained planner) rather than the stacked sweep;
        #: the batch decides, for all its additive engines at once.
        self.maintained = False
        #: All-pairs distances over :attr:`dense` as it stood before the
        #: nodes in :attr:`apsp_stale` changed their out-links (None:
        #: not built, or invalidated).
        self.apsp: Optional[np.ndarray] = None
        self.apsp_stale: set = set()
        #: This engine's block in the group's repair tables, and the
        #: nodes whose dense rows moved since the tables last saw them.
        self.table_slot = -1
        self.tables_stale: set = set()
        #: node -> the token its last fused step ended under, if that
        #: step did not re-wire.  While the live token still equals the
        #: stamp, every input of the node's best response is unchanged
        #: and so is the verdict ("stay"): see :meth:`is_settled`.
        self.settled: Dict[int, Tuple] = {}

    # ------------------------------------------------------------------ #
    def begin_epoch(self) -> None:
        self.plan = self.engine.begin_epoch()
        self._hop_rows.clear()
        self.active_set = frozenset(self.plan.active_list)
        before = self.dense
        self._rebuild_dense()
        self.version = self.engine.wiring.version
        # The all-pairs matrix is a function of the dense overlay alone,
        # so it survives the epoch boundary exactly when that did: churn,
        # failure injection and wiring resets all show up as a different
        # matrix, whatever they did to versions and fingerprints.
        if self.apsp is not None and not np.array_equal(
            before, self.dense, equal_nan=True
        ):
            self.apsp = None
            self.apsp_stale.clear()
        # Engines the kernel does not replicate (see lockstep.fusable)
        # step through their own evaluator, handed the same residuals.
        # Join/leave events between epochs only re-derive this mask (via
        # the re-begun plan's active list); the batch and its states
        # persist.
        self.fusable = fusable(
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

    def hop_rows(self, node: int) -> np.ndarray:
        """The node's candidate first hops, in evaluator (sorted) order."""
        rows = self._hop_rows.get(node)
        if rows is None:
            rows = np.array([c for c in self.plan.active_list if c != node], dtype=int)
            self._hop_rows[node] = rows
        return rows

    def token(self) -> Tuple:
        """Everything a residual (and so a verdict) depends on, right now:
        wiring version, announced-metric fingerprint, membership."""
        return (self.engine.wiring.version, self.plan.metric_fp, self.plan.active_key)

    def step(self, residual: Optional[np.ndarray]) -> None:
        """Advance one re-wiring opportunity on the engine's own path."""
        node = self.plan.order[self.plan.pos]
        self.engine.step_node(self.plan, residual=residual)
        self.after_step(node)

    def is_settled(self) -> bool:
        """Whether the next node's best response is already known: "stay".

        A fused step's verdict is a pure function of the node's residual
        rows, its announced direct row, its preferences, k, its incumbent
        wiring and the search cap — all of which stand while
        :meth:`token` does (the node's own weight refresh lies outside its
        residual, and the stamp is read after it).  So a node that stayed
        put under a token and meets the same token again stays put again,
        without a residual or a kernel call: the read-set check of a
        version-stamped result, kept per node in place of the residual
        matrix that used to stand in for it.
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
        self.after_step(node)
        if not rewired:
            self.settled[node] = self.token()

    def after_step(self, node: int) -> None:
        """Keep the dense overlay (and what follows it) current after
        ``node``'s step ran."""
        if self.engine.wiring.version == self.version:
            return
        self.version = self.engine.wiring.version
        row = self.dense[node]
        row[:] = np.nan
        active_set = self.active_set
        for v, w in self.engine.wiring.weights_of(node).items():
            if v in active_set:
                row[v] = w
        if self.apsp is not None:
            self.apsp_stale.add(node)
        if self.maintained:
            self.tables_stale.add(node)


class _LockstepDriver:
    """The round loop, its planners and the fused steps, over owners that
    stand where an :class:`EgoistEngine` stands (``begin_epoch``,
    ``step_node``, ``announce``, ``wiring``, ``nodes``, ``policy``,
    ``k``, ``n``, ``preferences``)."""

    def __init__(self):
        #: This epoch's maintained engines and, once a round derives,
        #: their repair tables (one block each, in that order).
        self._tables: Optional[
            Tuple[List[_LockstepState], Optional[ShortestRepairTables]]
        ] = None

    def _run_rounds(self, states: Sequence[_LockstepState]) -> None:
        """One epoch of every owner: ``begin_epoch``, then lockstep rounds
        until every plan is done."""
        with telemetry.span("batch.begin"):
            for st in states:
                st.begin_epoch()
            additive = [st for st in states if not st.plan.announced.maximize]
            maintained = (
                sum(len(st.plan.active_list) for st in additive) >= _MAINTAIN_MIN_ACTIVE
            )
            for st in additive:
                st.maintained = maintained
                if not maintained:
                    st.apsp = None
                    st.apsp_stale.clear()
            # The tables describe the dense matrices begin_epoch just
            # rebuilt, so they never survive an epoch; within one they
            # follow every rewritten row.
            self._tables = (additive, None) if maintained else None
        live = [st for st in states if not st.plan.done]
        while live:
            # Engines whose next node is settled need neither a residual
            # nor the kernel this round, only the adoption tail.
            settled: List[_LockstepState] = []
            stepping: List[_LockstepState] = []
            for st in live:
                (settled if st.is_settled() else stepping).append(st)
            with telemetry.span("batch.prefill"):
                residuals = self._prefill(stepping)
            # Fused groups must share the full objective convention —
            # direction AND disconnection value — since the broadcast
            # clamps use one value for the whole group.  Every stepping
            # engine has its node's residual, bar a lone node with no
            # candidate hop; an engine the kernel does not replicate is
            # handed its residual instead.
            groups: Dict[Tuple[bool, float], List[Tuple[_LockstepState, np.ndarray]]] = {}
            fallback: List[Tuple[_LockstepState, Optional[np.ndarray]]] = []
            for st in stepping:
                resid = residuals.get(st)
                if st.fusable and resid is not None:
                    metric = st.plan.announced
                    key = (bool(metric.maximize), float(metric.unreachable_value))
                    groups.setdefault(key, []).append((st, resid))
                else:
                    fallback.append((st, resid))
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
                for st, resid in fallback:
                    st.step(resid)
            live = [st for st in live if not st.plan.done]

    # ------------------------------------------------------------------ #
    # Residual route-value prefills
    # ------------------------------------------------------------------ #
    def _prefill(
        self, live: Sequence[_LockstepState]
    ) -> Dict[_LockstepState, np.ndarray]:
        """The residual of each ``live`` engine's next node, this round.

        ``live`` holds only the engines that step this round (settled
        ones were taken out by :meth:`_run_rounds`), and a node with no
        candidate hop needs no residual.  Engines on the maintained
        planner derive theirs from their all-pairs matrices
        (:meth:`_derive_residuals`); every other engine's is swept from
        its overlay as it stands (:meth:`_sweep_residuals`).  Each is
        read by its node's step in this very round.
        """
        maintained: List[_LockstepState] = []
        swept: Dict[bool, List[_LockstepState]] = {False: [], True: []}
        for st in live:
            if not len(st.hop_rows(st.plan.order[st.plan.pos])):
                continue
            if st.maintained:
                maintained.append(st)
            else:
                swept[bool(st.plan.announced.maximize)].append(st)
        residuals: Dict[_LockstepState, np.ndarray] = {}
        for maximize, group in swept.items():
            if group:
                residuals.update(self._sweep_residuals(group, maximize))
        if maintained:
            residuals.update(self._derive_residuals(maintained))
        return residuals

    def _sweep_residuals(
        self, group: Sequence[_LockstepState], maximize: bool
    ) -> Dict[_LockstepState, np.ndarray]:
        """The stacked planner: every ``group`` engine's dense overlay with
        its stepping node's out-links cleared, swept in one call —
        bitwise the sweep of the residual graph the engine's own step
        would run (past the closure cutoff, its per-source search)."""
        nodes = [st.plan.order[st.plan.pos] for st in group]
        stack = np.stack([st.dense for st in group])
        stack[np.arange(len(group)), nodes, :] = np.nan
        matrices = batched_route_matrices(
            stack, maximize=maximize, block_nodes=_ENGINE_BLOCK_NODES
        )
        return {
            st: matrix[st.hop_rows(node)]
            for st, node, matrix in zip(group, nodes, matrices)
        }

    def _derive_residuals(
        self, group: Sequence[_LockstepState]
    ) -> Dict[_LockstepState, np.ndarray]:
        """The maintained planner: every ``group`` engine's next residual.

        Each engine keeps one all-pairs matrix of its current overlay
        (:attr:`_LockstepState.apsp`) — swept once, then brought up to
        date after each re-wire (or in-place weight refresh) by
        :func:`repair_shortest_rows` with the re-wired nodes as the
        change — and a node's residual graph differs from the overlay in
        the node's own out-links only, so its rows are the same kernel's
        ``changed={node}, exclude=node`` repair.  Both are bit-identical
        to the fresh sweeps they replace.  The group shares each step:
        one block Dijkstra builds the matrices not yet swept, one stacked
        repair updates every stale matrix (the kernel re-sweeps a member
        whose update is too widespread to relax, counted as *refused*),
        and one stacked repair derives every residual — so the repair's
        fixed cost is paid per round, not per engine.  Both repairs read
        the epoch's tables (:meth:`_group_tables`), whose upkeep is the
        rows the group rewrote since its last round.
        """
        unbuilt = [st for st in group if st.apsp is None]
        if unbuilt:
            telemetry.count("batch.prefill.swept", len(unbuilt))
            built = batched_route_matrices(
                np.stack([st.dense for st in unbuilt]),
                maximize=False,
                block_nodes=_ENGINE_BLOCK_NODES,
            )
            for st, matrix in zip(unbuilt, built):
                st.apsp = matrix
                st.apsp_stale.clear()
        tables = self._group_tables(group)
        sources = np.arange(group[0].engine.n)
        # (The kernel copies what it writes, so a lone matrix is viewed.)
        apsp = group[0].apsp[None] if len(group) == 1 else np.stack([st.apsp for st in group])
        stale = [st.apsp_stale for st in group]
        if any(stale):
            screen = screen_shortest_repair(apsp, sources, stale, tables)
            refused = int(np.count_nonzero(screen.sweeps))
            if refused:
                telemetry.count("batch.prefill.refused", refused)
            telemetry.count("batch.prefill.updated", sum(map(bool, stale)) - refused)
            apsp = repair_shortest_rows(
                apsp, sources, stale, None, tables=tables, screen=screen
            )
            for st, matrix in zip(group, apsp):
                if st.apsp_stale:
                    st.apsp = matrix
                    st.apsp_stale.clear()
        telemetry.count("batch.prefill.derived", len(group))
        nodes = [st.plan.order[st.plan.pos] for st in group]
        rows = repair_shortest_rows(
            apsp, sources, [(node,) for node in nodes], None, exclude=nodes, tables=tables
        )
        return {
            st: resid[st.hop_rows(node)] for st, node, resid in zip(group, nodes, rows)
        }

    def _group_tables(self, group: Sequence[_LockstepState]) -> ShortestRepairTables:
        """The epoch's repair tables, current for ``group``, viewed in its
        order.

        Built once per epoch from every maintained engine's dense matrix
        (the first derive's group may be any subset of them); after that
        a round pays only for the rows its engines rewrote since the
        tables last saw them — within an epoch a dense matrix moves only
        in the rows :meth:`_LockstepState.after_step` rewrites.  An
        engine outside the round keeps its stale rows until it is back:
        no repair reads another member's block.
        """
        states, tables = self._tables
        if tables is None:
            tables = shortest_inbound_tables([st.dense for st in states])
            self._tables = (states, tables)
            for slot, st in enumerate(states):
                st.table_slot = slot
                st.tables_stale.clear()
        stale = [(st, node) for st in group for node in st.tables_stale]
        if stale:
            tables.patch(
                [st.table_slot for st, _node in stale],
                [node for _st, node in stale],
                [st.dense[node] for st, node in stale],
            )
            for st in group:
                st.tables_stale.clear()
        return tables.select([st.table_slot for st in group])

    def _fused_engine_steps(
        self, group: Sequence[Tuple[_LockstepState, np.ndarray]]
    ) -> None:
        """One re-wiring opportunity per engine, through the shared kernel.

        ``group`` pairs each engine's lockstep state with the residual
        route-value matrix of its next node, planned this round by
        :meth:`_prefill`.  Each becomes a
        :class:`~repro.core.best_response.Member`;
        :func:`~repro.core.best_response.fused_best_response` scores the whole
        group.  The adoption rule is :meth:`EgoistNode.consider_rewiring`'s:
        BR(ε) with the *node's* epsilon (a build's carry the policy's),
        empty-wiring nodes adopting any different wiring; then
        :meth:`_LockstepState.adopt`.
        """
        metric = group[0][0].plan.announced
        members = []
        for st, resid in group:
            node = st.plan.order[st.plan.pos]
            ids = st.hop_rows(node)
            wiring = st.engine.nodes[node].wiring
            direct = st.plan.announced.link_weight_row(node)[ids][:, None]
            if metric.maximize:
                via = np.minimum(direct, resid[:, ids])
            else:
                via = direct + resid[:, ids]
            members.append(
                Member(
                    via,
                    ids,
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


class EngineBatch(_LockstepDriver):
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
        super().__init__()
        self.specs: List[EngineSpec] = specs
        self.batched = bool(batched)
        self.n = specs[0].provider.size
        self.engines: List[EgoistEngine] = [spec.build_engine() for spec in specs]
        self._states: Optional[List[_LockstepState]] = None

    def __getstate__(self) -> Dict[str, object]:
        # Serve checkpoints pickle the batch between epochs.  The
        # lockstep states and the group's repair tables hold nothing an
        # epoch cannot re-derive (every begin_epoch resets them; the
        # all-pairs matrices are caches), so they are not stored.
        state = dict(self.__dict__)
        state["_states"] = state["_tables"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Whatever a checkpoint carried (older code stored the states, or
        # predates the tables), a restored batch re-derives both.
        self.__dict__.update(state)
        self._states = self._tables = None

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
        self._run_rounds(self._states)
        with telemetry.span("batch.finish"):
            return self._finish_epochs(self._states)

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
