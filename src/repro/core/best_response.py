"""Best-Response (BR) neighbour selection.

Given the residual wiring ``S_{-i}`` (everyone else's links), node ``v_i``'s
best response is the wiring ``s_i`` of at most ``k`` links minimising its
cost ``C_i(S_{-i} + s_i)`` — or maximising its aggregate bottleneck
bandwidth under the bandwidth metric.  Computing an exact BR is NP-hard
(asymmetric k-median for delay; Appendix A.1 for bandwidth), so EGOIST uses
fast local-search approximations; both the exact enumeration (for small
instances, tests, and ablations) and the local search are implemented here.

The evaluation exploits the structure noted in the paper: once the
destination-indexed routing values of the *residual* graph are known, the
value a wiring ``s`` delivers for destination ``j`` is

* delay/load (minimise):  ``min_{w in s} (d_iw + D_resid[w, j])``
* bandwidth (maximise):   ``max_{w in s} min(bw_iw, B_resid[w, j])``

so each candidate wiring is a row reduction over a precomputed
``(hops x destinations)`` "via" matrix — and, crucially, *batches* of
candidate wirings are a single broadcast reduction over a
``(candidates x hops x destinations)`` view of the same matrix.  Exact
enumeration scores whole blocks of k-subsets this way
(:meth:`WiringEvaluator.evaluate_batch`).  The local search is one
kernel, :func:`fused_best_response`, which runs a whole group of
opportunities over one padded via tensor: the lockstep driver of
:mod:`repro.core.engine_batch` calls it for a group,
:func:`best_response_local_search` for one evaluator.  Both use the same
elementwise reductions as the one-wiring :meth:`WiringEvaluator.evaluate`
(exact min/max, multiply then pairwise sum), so objective values are
bitwise identical to scoring each wiring on its own;
``tests/reference/scalar_best_response.py`` is the interpreted oracle
the parity tests hold them to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Collection, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.core.cost import Metric, uniform_preferences
from repro.core.wiring import Wiring
from repro.routing.graph import OverlayGraph
from repro.telemetry import runtime as telemetry
from repro.util.validation import ValidationError, check_index

#: Soft cap on the number of (wiring x destination) value cells
#: materialised per batched-kernel chunk (~32 MB of float64).
_KERNEL_CHUNK_CELLS = 4_000_000


def _ordered_unique(values: Iterable[int], exclude: int) -> List[int]:
    """Normalise a node list: ints, no ``exclude``, duplicates dropped
    while preserving first-occurrence order."""
    seen: Set[int] = set()
    out: List[int] = []
    for value in values:
        value = int(value)
        if value == exclude or value in seen:
            continue
        seen.add(value)
        out.append(value)
    return out


@dataclass
class WiringEvaluator:
    """Fast evaluator of candidate wirings for one node.

    Parameters
    ----------
    node:
        The node choosing its neighbours.
    metric:
        The cost metric in use.
    residual_graph:
        The overlay graph *without* ``node``'s outgoing links (read only
        when ``residual_values`` is not given).
    candidates:
        Nodes that may be chosen as neighbours (defaults to everyone else).
    preferences:
        Preference matrix; defaults to uniform.
    destinations:
        Destinations included in the objective (defaults to all other
        nodes); under churn only active destinations are passed.
    required:
        Neighbours that must be part of every evaluated wiring (the donated
        backbone links of HybridBR).
    residual_values:
        The ``(hops x n)`` residual route values from each relevant first
        hop (candidates and required links, ascending) when the caller
        already has them — the multi-source sweep over ``residual_graph``
        is the expensive part of construction.  Without them the
        evaluator sweeps and keeps the result here, so the caller can
        memoise or share it.
    """

    node: int
    metric: Metric
    residual_graph: OverlayGraph
    candidates: Optional[Sequence[int]] = None
    preferences: Optional[np.ndarray] = None
    destinations: Optional[Sequence[int]] = None
    required: FrozenSet[int] = frozenset()
    residual_values: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.metric.size
        check_index(self.node, n, "node")
        self.candidates = _ordered_unique(
            self.candidates if self.candidates is not None else range(n), self.node
        )
        if self.preferences is None:
            self.preferences = uniform_preferences(n)
        self.destinations = _ordered_unique(
            self.destinations if self.destinations is not None else range(n), self.node
        )
        self.required = frozenset(int(r) for r in self.required)
        for r in self.required:
            if r == self.node:
                raise ValidationError("a node cannot be required to wire to itself")
        # Pre-compute, for every potential first hop w and destination j,
        # the value of routing to j via w ("via matrix").  Candidate
        # wirings are then evaluated with cheap row reductions.
        self._relevant_hops = sorted(set(self.candidates) | self.required)
        self._hop_index = {w: idx for idx, w in enumerate(self._relevant_hops)}
        if self._relevant_hops:
            if self.residual_values is None:
                self.residual_values = self._sweep_residual()
            resid = self.residual_values
            direct = self.metric.link_weight_row(self.node)[
                np.array(self._relevant_hops, dtype=int)
            ]
            self._direct = dict(zip(self._relevant_hops, direct.tolist()))
            if self.metric.maximize:
                # via[w, j] = min(direct bw to w, residual bw from w to j);
                # the +inf diagonal of resid leaves via[w, w] = direct bw.
                self._via = np.minimum(direct[:, None], resid)
            else:
                # via[w, j] = direct cost to w + residual cost from w to j;
                # resid[w, w] = 0 so the direct link itself is covered.
                self._via = direct[:, None] + resid
        else:
            self._direct = {}
            self._via = np.zeros((0, self.metric.size))
        self._pref_row = self.preferences[self.node]
        self._dest_array = np.array(self.destinations, dtype=int)
        self._dest_prefs = (
            self._pref_row[self._dest_array] if len(self._dest_array) else np.zeros(0)
        )
        # Destination-restricted via matrix: rows index hops, columns index
        # self.destinations.  Every kernel below reduces over this.
        self._via_dest = self._via[:, self._dest_array]
        self._required_rows = np.array(
            [self._hop_index[r] for r in sorted(self.required)], dtype=int
        )
        self._empty_cost = float(
            np.sum(self._dest_prefs) * self.metric.unreachable_value
        )
        # When every via value is already reachable, the unreachable clamp
        # is an identity and the batched kernels skip it (reductions over
        # reachable values stay reachable).
        if self.metric.maximize:
            self._via_clean = bool(
                np.all(np.isfinite(self._via_dest) & (self._via_dest > 0))
            )
        else:
            self._via_clean = bool(np.all(np.isfinite(self._via_dest)))

    def _sweep_residual(self) -> np.ndarray:
        """``(hops x n)`` residual route values, swept from the graph."""
        if self.metric.maximize:
            from repro.routing.widest_path import widest_path_bandwidths_multi

            return widest_path_bandwidths_multi(
                self.residual_graph, list(self._relevant_hops)
            )
        from repro.routing.shortest_path import shortest_path_costs_multi

        return shortest_path_costs_multi(
            self.residual_graph, list(self._relevant_hops)
        )

    # ------------------------------------------------------------------ #
    # Objective evaluation
    # ------------------------------------------------------------------ #
    def _clamp(self, best: np.ndarray) -> np.ndarray:
        """Replace unreachable per-destination values by the metric's
        disconnection value."""
        if self.metric.maximize:
            return np.where(
                np.isfinite(best) & (best > 0), best, self.metric.unreachable_value
            )
        return np.where(np.isfinite(best), best, self.metric.unreachable_value)

    def _clamp_inplace(self, values: np.ndarray) -> np.ndarray:
        """In-place variant of :meth:`_clamp` for the batched kernels.

        Fills the same positions with the same disconnection value, so
        results stay bitwise identical to :meth:`evaluate`; it is skipped
        entirely when the via matrix is clean (see ``_via_clean``).
        """
        if self._via_clean:
            return values
        if self.metric.maximize:
            bad = ~(np.isfinite(values) & (values > 0))
        else:
            bad = ~np.isfinite(values)
        values[bad] = self.metric.unreachable_value
        return values

    def _rows_of(self, neighbors: Iterable[int]) -> List[int]:
        """Via-matrix rows of ``neighbors`` (ValidationError on unknowns)."""
        rows = []
        for w in neighbors:
            idx = self._hop_index.get(int(w))
            if idx is None:
                raise ValidationError(f"{w} is not an allowed neighbor")
            rows.append(idx)
        return rows

    def evaluate(self, neighbors: Iterable[int]) -> float:
        """Objective value of the wiring ``neighbors`` (plus required links)."""
        chosen = set(int(v) for v in neighbors) | self.required
        if not chosen:
            # A node with no links reaches nobody.
            return self._empty_cost
        rows = self._rows_of(chosen)
        if len(self._dest_array) == 0:
            return 0.0
        values = self._via_dest[rows]
        best = values.max(axis=0) if self.metric.maximize else values.min(axis=0)
        best = self._clamp(best)
        return float((self._dest_prefs * best).sum())

    def _evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        """Batched objective for a ``(wirings x hops-per-wiring)`` row matrix.

        Duplicate rows within a wiring are harmless (min/max reductions are
        idempotent), which lets callers append the required rows uniformly.
        """
        batch, width = rows.shape
        if width == 0:
            return np.full(batch, self._empty_cost)
        if len(self._dest_array) == 0:
            return np.zeros(batch)
        values = self._via_dest[rows]  # (batch, width, dests)
        best = values.max(axis=1) if self.metric.maximize else values.min(axis=1)
        self._clamp_inplace(best)
        best *= self._dest_prefs
        return best.sum(axis=1)

    def evaluate_batch(self, wirings: Sequence[Iterable[int]]) -> np.ndarray:
        """Objective values of many candidate wirings in one broadcast.

        Each wiring is an iterable of neighbour ids; required links are
        added automatically.  The result is bitwise identical to calling
        :meth:`evaluate` on each wiring, but a large batch costs a single
        fancy-indexed reduction instead of one Python round-trip per
        wiring.  Ragged batches are supported (wirings are grouped by
        size internally).
        """
        costs = np.empty(len(wirings))
        req = list(self._required_rows)
        groups: Dict[int, Tuple[List[int], List[List[int]]]] = {}
        for pos, wiring in enumerate(wirings):
            rows = self._rows_of(wiring) + req
            indices, members = groups.setdefault(len(rows), ([], []))
            indices.append(pos)
            members.append(rows)
        for width, (indices, members) in groups.items():
            rows = np.array(members, dtype=int).reshape(len(members), width)
            chunk = max(1, _KERNEL_CHUNK_CELLS // max(1, width * len(self._dest_array)))
            for start in range(0, len(members), chunk):
                block = rows[start : start + chunk]
                costs[np.array(indices[start : start + chunk], dtype=int)] = (
                    self._evaluate_rows(block)
                )
        return costs

    def better(self, a: float, b: float) -> bool:
        """Delegate to the metric's objective direction."""
        return self.metric.better(a, b)


@dataclass(frozen=True)
class BestResponseResult:
    """Outcome of a best-response computation."""

    node: int
    neighbors: FrozenSet[int]
    cost: float
    method: str

    def as_wiring(self, donated: Iterable[int] = ()) -> Wiring:
        """Convert to a :class:`Wiring` (marking ``donated`` links)."""
        return Wiring.of(self.node, self.neighbors, donated)


def best_response_exact(evaluator: WiringEvaluator, k: int) -> BestResponseResult:
    """Exact best response by exhaustive enumeration of all k-subsets.

    Exponential in ``k`` — only use for small instances (tests, ablation
    A1).  ``k`` counts only the selfish links; any ``required`` links of
    the evaluator come on top.  Subsets are scored in batched broadcasts;
    ties fall to the first subset in enumeration order.
    """
    candidates = [c for c in evaluator.candidates if c not in evaluator.required]
    k = min(k, len(candidates))
    if k < 0:
        raise ValidationError("k must be non-negative")
    best_set: Optional[Tuple[int, ...]] = None
    best_cost: Optional[float] = None
    maximize = evaluator.metric.maximize
    combos = itertools.combinations(candidates, k)
    while True:
        batch = list(itertools.islice(combos, 2048))
        if not batch:
            break
        costs = evaluator.evaluate_batch(batch)
        pos = int(np.argmax(costs)) if maximize else int(np.argmin(costs))
        if best_cost is None or evaluator.better(float(costs[pos]), best_cost):
            best_cost = float(costs[pos])
            best_set = batch[pos]
    if best_set is None:
        best_set = ()
        best_cost = evaluator.evaluate(())
    return BestResponseResult(
        node=evaluator.node,
        neighbors=frozenset(best_set) | evaluator.required,
        cost=float(best_cost),
        method="exact",
    )


class Member(NamedTuple):
    """One node's re-wiring opportunity, as :func:`fused_best_response` sees it."""

    #: ``(c, t)`` raw via values — routing to destination column ``t``
    #: through candidate row ``c`` (direct link, then residual route) —
    #: rows and columns in the caller's order.
    via: np.ndarray
    #: The ``c`` candidate ids, in ``via``'s row order.
    hop_ids: np.ndarray
    #: The node's preference weight for each destination column.
    prefs: np.ndarray
    #: Neighbour budget (clipped to ``c`` by the kernel).
    k: int
    #: Current neighbour ids, all in ``hop_ids`` (empty: unwired).
    incumbent: Collection[int]
    #: Local-search pass cap (``BestResponsePolicy.max_iterations``).
    max_iterations: int
    #: Per-destination reduction of the required (donated) links' via
    #: rows, part of every wiring the kernel scores; ``None``: none.
    fixed: Optional[np.ndarray] = None


def _fold_is_exact(
    via: np.ndarray,
    clamped: np.ndarray,
    prefs: np.ndarray,
    *,
    maximize: bool,
    unreachable: float,
) -> bool:
    """Whether clamping and weighting ``via`` *before* the kernel's
    selections gives the bits that doing so after each of them would.

    Every pass of the kernel selects per destination over via rows
    (min/max), clamps unreachable values to ``unreachable``, multiplies
    by the preference and sums.  A selection commutes with a monotone
    map — ``fl(p * clamp(min(a, b))) == min(fl(p * clamp(a)), fl(p *
    clamp(b)))``, the very same float product, since min/max pick one of
    their arguments and ``x -> fl(p * x)`` is monotone for ``p >= 0`` —
    so the question is whether the clamp is monotone, i.e. whether the
    disconnection value is no better than any reachable one:

    * minimising: every finite via is ``<= unreachable``;
    * maximising: no via is ``+inf`` (the clamp sends it *down* to
      ``unreachable``) and ``unreachable <=`` every positive finite via.

    That is not a given.  A failed link is *announced* at the
    disconnection cost — a finite weight — so routes over it sum past
    it, and an infinite direct bandwidth makes a via ``+inf``.
    ``clamped`` is ``via`` with the clamp applied, which turns the check
    into one reduction; ``via`` includes the fixed rows, and may have no
    destination column at all.
    """
    if maximize:
        monotone = (
            clamped.min(initial=np.inf) >= unreachable
            and via.max(initial=-np.inf) < np.inf
        )
    else:
        monotone = clamped.max(initial=-np.inf) <= unreachable
    return bool(monotone and prefs.min(initial=np.inf) >= 0)


#: Passes :func:`_no_improving_swap` makes over a lane's ``(C, T)``
#: block — two minima, their difference, a sum and a matmul — against
#: the ``k`` slot blocks an exact swap pass scores.  An attempt can pay
#: only where ``k`` exceeds them: a failed one costs its passes on top
#: of the exact pass.
_CERTIFICATE_PASSES = 5


def _no_improving_swap(
    weighted: np.ndarray,
    cur: np.ndarray,
    loo: np.ndarray,
    blocked_in: np.ndarray,
    blocked_out: np.ndarray,
    cost: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """Lanes that provably have no improving single swap (minimising).

    ``weighted`` is the folded ``(A, C, T)`` candidate block ``W``,
    ``cur`` the ``(A, k + 1, T)`` chosen rows (fixed row last) and
    ``loo`` their ``(A, k, T)`` leave-one-out minima; ``blocked_in`` /
    ``blocked_out`` mask the candidates (``(A, 1, C)``) and slots
    (``(A, k, 1)``) a swap may not use, ``cost`` is each lane's current
    cost and ``work`` scratch for two ``(A, C, T)`` planes.

    Swapping slot ``o`` for candidate ``c`` scores ``Σ_j min(loo[o, j],
    W[c, j])``.  With ``b1``/``b2`` the best and second-best chosen
    values per destination, ``loo[o, j]`` is ``b2[j]`` where ``o`` is the
    unique slot attaining ``b1[j]`` (``o`` *owns* ``j``) and ``b1[j]``
    elsewhere, so every swap score splits into

    * ``base[c] = Σ_j min(b1[j], W[c, j])`` — one ``C x T`` pass;
    * ``delta[o, c] = Σ_{j owned by o} (min(b2[j], W[c, j]) - min(b1[j],
      W[c, j]))`` — one more pass and a matmul against the owner one-hot.

    Why the bound is rigorous
    -------------------------
    It is used on the folded additive branch only, where every ``W`` is
    ``>= 0`` (checked by the caller), so every term below is ``>= 0``.
    The mins are exact, so in real arithmetic ``S(o, c) = base + delta``
    is exactly the sum of the terms the exact pass adds.  Let ``u =
    eps/2`` and ``x = T*u``.  A float sum of ``T`` non-negative terms, in
    *any* order (pairwise, prefix-only, BLAS), lies in ``[S(1 - γ_T), S(1
    + γ_T)]``, ``γ_T = x / (1 - x)``.  So the exact pass computes ``v(o,
    c) >= S (1 - 2x) / (1 - x)``.  Here each ``b2 - b1`` difference is
    rounded once (``<= (1 + u)`` times its value), ``base`` and
    ``delta`` are ``T``-term sums, their sum and the product by ``s =
    fl(1 - 8x)`` round once each, and ``s <= (1 - 8x)(1 + u)``: the bound
    is at most ``S (1 - 8x)(1 + u)^4 / (1 - x)``.  As ``(1 + u)^4 <= 1 +
    5u`` and ``(1 - 8x)(1 + 5u) <= 1 - 2x`` whenever ``T >= 1``, bound
    ``<=`` ``v(o, c)``.  A lane whose smallest allowed bound is ``>=``
    its cost therefore has no swap scoring below it, which is exactly
    when the exact pass would stop it.  A ``NaN`` anywhere (an infinite
    disconnection value) compares false and certifies nothing.
    """
    A, C, T = weighted.shape
    b1 = cur.min(axis=1)[:, None, :]
    own = (loo != b1).astype(float)
    low = np.minimum(b1, weighted, out=work[: A * C * T].reshape(A, C, T))
    high = np.minimum(
        loo.max(axis=1)[:, None, :],
        weighted,
        out=work[A * C * T : 2 * A * C * T].reshape(A, C, T),
    )
    high -= low
    bound = own @ high.transpose(0, 2, 1)  # (A, k, C)
    bound += low.sum(axis=-1)[:, None, :]
    bound *= 1.0 - 4.0 * T * float(np.finfo(float).eps)
    np.copyto(bound, np.inf, where=blocked_in)
    np.copyto(bound, np.inf, where=blocked_out)
    return bound.reshape(A, -1).min(axis=1, initial=np.inf) >= cost


def fused_best_response(
    members: Sequence[Member], *, maximize: bool, unreachable: float
) -> Tuple[np.ndarray, List[List[int]], np.ndarray]:
    """Greedy-seeded local-search best responses of a group, in broadcasts.

    Returns ``(existing_cost, chosen, candidate_cost)`` in ``members``
    order: the objective of each member's incumbent wiring, the neighbour
    ids the search settled on (in slot order), and their objective.

    The search is the one the paper deploys, its "fast approximate
    version based on local search" (within ~5% of optimal): pick ``k``
    neighbours greedily by marginal gain, then repeatedly take the best
    improving single swap of one chosen neighbour for one unchosen
    candidate, until none improves or ``max_iterations`` passes ran.
    Ties go to the first candidate in the caller's order, and to the
    first swap in slot-major order.

    All members share the objective convention (``maximize`` and the
    disconnection value ``unreachable``), so their via blocks stack into
    one ``(members x candidates+1 x destinations)`` tensor and every pass
    — scoring a wiring, each greedy step, each swap pass — is a single
    broadcast over it.  Widths may differ per member (churned-down
    engines, sampled joins): member ``d`` occupies the compact prefix of
    its candidate rows and destination columns, its padded candidates
    are pre-masked like already-taken ones, and every destination sum
    reduces over the member's own prefix only.  The last row holds the
    member's ``fixed`` reduction (the identity without one); short
    wirings point at it, so every score includes the required links.
    Costs and tie-breaks are therefore bitwise those of
    ``tests/reference/scalar_best_response.py``, one ``evaluate`` per
    trial wiring.

    The evaluator clamps and preference-weights after every selection;
    the kernel does both to the tensor once, ``W[c, j] = fl(p_j *
    clamp(via[c, j]))``, and runs each pass as a selection plus a
    destination sum over ``W``.  That is the same float product per cell
    whenever the clamp is monotone and ``p >= 0``;
    :func:`_fold_is_exact` checks exactly that, and a group failing it (a
    link announced at the disconnection cost, an infinite direct
    bandwidth) clamps and weights per pass instead.

    Most searches end on a pass that finds nothing: a greedy seed is
    usually swap-optimal already.  On the folded additive branch (every
    ``W >= 0``) each lane therefore first tries to *certify* that no swap
    improves, from a float-rigorous lower bound on all ``k x C`` swap
    scores that costs five passes over its ``C x T`` block
    (:func:`_no_improving_swap`) where the exact pass scores ``k`` such
    blocks.  A certified lane stops exactly as the exact pass would have
    stopped it; the rest take the exact pass, so decisions and
    tie-breaks are untouched.  The attempt is made only where ``k``
    exceeds the certificate's passes (:data:`_CERTIFICATE_PASSES`).
    Bandwidth takes the exact pass always: max-min ties leave such a
    bound no margin.
    """
    D = len(members)
    combine = np.maximum if maximize else np.minimum
    pick = np.argmax if maximize else np.argmin
    identity = -np.inf if maximize else np.inf

    # Largest budgets first: the members still seeding at greedy step s
    # then form a prefix, so per-pass kernels slice views instead of
    # masking lanes.  Members are independent, so the order is free.
    budgets = [max(0, min(int(m.k), len(m.hop_ids))) for m in members]
    order = sorted(range(D), key=lambda i: -budgets[i])
    group = [members[i] for i in order]
    ks = np.array([budgets[i] for i in order], dtype=int)
    hc = np.array([len(m.hop_ids) for m in group], dtype=int)
    hd = np.array([m.via.shape[1] for m in group], dtype=int)
    C, T = int(hc.max()), int(hd.max())
    uniform_width = int(hd.min()) == T
    # Everything outside a member's compact block is padding: never
    # selected (pre-masked as taken below) nor summed, but it flows
    # through the preference multiplies, so it carries 0 — infinite
    # cells would turn the zero preferences into NaNs.
    via = np.zeros((D, C + 1, T))
    prefs = np.zeros((D, T))
    for d, m in enumerate(group):
        c, t = m.via.shape
        via[d, :c, :t] = m.via
        via[d, C, :t] = identity if m.fixed is None else m.fixed
        prefs[d, :t] = m.prefs
    k_max = int(ks.max())
    d_idx = np.arange(D)

    def reachable(values: np.ndarray) -> np.ndarray:
        finite = np.isfinite(values)
        return finite & (values > 0) if maximize else finite

    # --- fold clamp + preferences into the tensor, once ---------------- #
    # Clamp first, then multiply: a zero preference over an unreachable
    # cell is 0, not ``0 * inf``.
    weighted = np.where(reachable(via), via, unreachable)
    folded = _fold_is_exact(
        via, weighted, prefs, maximize=maximize, unreachable=unreachable
    )
    if folded:
        weighted *= prefs[:, None, :]
        via = weighted
    # What a reduction over no chosen row reads: the fixed links alone.
    start = via[:, C, :]

    def weigh_(values: np.ndarray, weights: np.ndarray) -> None:
        """Clamp and preference-weight selected values, in place — unless
        the fold already did both to the tensor they were selected from."""
        if not folded:
            values[~reachable(values)] = unreachable
            values *= weights

    def dest_sums(values: np.ndarray, lanes: Sequence[int]) -> np.ndarray:
        """Per-member destination sums over the compact prefixes.

        Row ``a`` of ``values`` belongs to sorted member ``lanes[a]`` and
        sums its first ``hd`` columns — the very same contiguous value
        runs its evaluator would reduce, so the pairwise summations agree
        bit for bit (a fused sum over the zero-padded width would regroup
        the additions).  With every prefix at full width one fused
        reduction is row-wise identical.
        """
        if uniform_width:
            return values.sum(axis=-1)
        out = np.empty(values.shape[:-1])
        for a, d in enumerate(lanes):
            out[a] = values[a, ..., : hd[d]].sum(axis=-1)
        return out

    def wiring_costs(rows: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        """Objective of one wiring per row: ``rows[a]`` belongs to sorted
        member ``lanes[a]``, ends in the fixed row ``C`` and pads short
        wirings with it."""
        vals = via[lanes[:, None], rows]
        best = vals.max(axis=1) if maximize else vals.min(axis=1)
        weigh_(best, prefs[lanes])
        costs = dest_sums(best, lanes)
        for a in np.nonzero(rows[:, 0] == C)[0]:
            d = lanes[a]
            if group[d].fixed is None:
                # A node with no link at all is charged the evaluator's
                # empty cost: the *summed* preferences times the
                # disconnection value, not the padded reduction above.
                costs[a] = np.sum(prefs[d, : hd[d]]) * unreachable
        return costs

    # --- greedy marginal-gain seeding --------------------------------- #
    # One work tensor serves every greedy step and every swap pass.
    work = np.empty(D * max(1, k_max) * C * T)
    running = start.copy()
    # Padded candidate lanes start out taken: their scores read as the
    # worst value (the identity), so the argmin/argmax lanes resolve over
    # each member's real candidates exactly as its evaluator's.
    taken = np.arange(C)[None, :] >= hc[:, None]
    # Slot k_max stays the fixed row: every wiring scored includes it.
    current_rows = np.full((D, k_max + 1), C)
    for step in range(k_max):
        live = int(np.count_nonzero(step < ks))  # a prefix: ks sorted desc
        trial = work[: live * C * T].reshape(live, C, T)
        combine(running[:live, None, :], via[:live, :C, :], out=trial)
        weigh_(trial, prefs[:live, None, :])
        costs = dest_sums(trial, d_idx[:live])
        costs[taken[:live]] = identity
        pos = pick(costs, axis=1)
        sel = d_idx[:live]
        current_rows[sel, step] = pos
        taken[sel, pos] = True
        running[:live] = combine(running[:live], via[sel, pos])

    # --- score the incumbents and the seeds, in one pass -------------- #
    incumbent_rows = [
        np.nonzero(np.fromiter(m.incumbent, int)[:, None] == m.hop_ids)[1]
        for m in group
    ]
    width = max(k_max, max(map(len, incumbent_rows))) + 1
    wirings = np.full((2 * D, width), C)
    for d, rows in enumerate(incumbent_rows):
        wirings[d, : len(rows)] = rows
    wirings[D:, : k_max + 1] = current_rows
    costs = wiring_costs(wirings, np.concatenate([d_idx, d_idx]))
    existing_cost, current_cost = costs[:D], costs[D:]

    # --- single-swap local search ------------------------------------- #
    # Members converge at different speeds, so once some have stopped
    # each pass gathers the still-active lanes into compact tensors:
    # every kernel below is member-wise independent, so decisions stay
    # bitwise identical while late passes stop paying for stopped lanes.
    caps = np.array([int(m.max_iterations) for m in group])
    active = (caps > 0) & (ks > 0)
    beyond_budget = np.arange(k_max)[None, :, None] >= ks[:, None, None]
    # Where an exact pass scores more blocks than the certificate makes
    # passes, a lane first tries to prove it has nothing to gain (the
    # proof needs every W >= 0).
    certify = (
        folded
        and not maximize
        and k_max > _CERTIFICATE_PASSES
        and via.min(initial=np.inf) >= 0
    )
    iteration = 0
    while active.any():
        act = np.nonzero(active)[0]
        A = len(act)
        if A == D:
            via_a, rows_a = via, current_rows
        else:
            via_a, rows_a = via[act], current_rows[act]
        # (A, k_max + 1, T): the chosen slots, then the fixed row.
        cur = via_a[np.arange(A)[:, None], rows_a]
        # Exact leave-one-out by prefix and suffix selections: slot o's
        # complement is slots < o combined with slots > o and the fixed row.
        loo = combine.accumulate(cur[:, :0:-1], axis=1)[:, ::-1].copy()
        prefix = combine.accumulate(cur[:, : k_max - 1], axis=1)
        combine(loo[:, 1:], prefix, out=loo[:, 1:])
        if certify:
            stays = _no_improving_swap(
                via_a[:, :C],
                cur,
                loo,
                taken[act][:, None, :],
                beyond_budget[act],
                current_cost[act],
                work,
            )
            if stays.any():
                # The exact pass would stop these lanes unchanged.
                telemetry.count("best_response.certified", int(np.count_nonzero(stays)))
                active[act[stays]] = False
                if stays.all():
                    break
                keep = ~stays
                act, via_a, loo = act[keep], via_a[keep], loo[keep]
                A = len(act)
        a_idx = np.arange(A)
        trial = work[: A * k_max * C * T].reshape(A, k_max, C, T)
        combine(loo[:, :, None, :], via_a[:, None, :C, :], out=trial)
        weigh_(trial, prefs[act][:, None, None, :])
        swap = dest_sums(trial, act)
        np.copyto(swap, identity, where=taken[act][:, None, :])
        np.copyto(swap, identity, where=beyond_budget[act])
        flat = swap.reshape(A, k_max * C)
        pos = pick(flat, axis=1)
        val = flat[a_idx, pos]
        improved = (val > current_cost[act]) if maximize else (val < current_cost[act])
        sel = act[improved]
        if len(sel):
            out_slot = pos[improved] // C
            in_pos = pos[improved] % C
            taken[sel, current_rows[sel, out_slot]] = False
            taken[sel, in_pos] = True
            current_rows[sel, out_slot] = in_pos
            current_cost[sel] = val[improved]
        iteration += 1
        active[:] = False
        active[sel] = iteration < caps[sel]

    # --- back to the caller's order ----------------------------------- #
    inverse = np.argsort(order)
    return (
        existing_cost[inverse],
        [group[d].hop_ids[current_rows[d, : ks[d]]].tolist() for d in inverse],
        current_cost[inverse],
    )


def best_response_local_search(
    evaluator: WiringEvaluator, k: int, *, max_iterations: int = 100
) -> BestResponseResult:
    """Approximate best response: :func:`fused_best_response` for one node.

    The evaluator's via rows of its non-required candidates and its
    destination columns, both in the evaluator's order, form the one
    :class:`Member`; the required links ride along as its ``fixed`` row.
    """
    metric = evaluator.metric
    candidates = [c for c in evaluator.candidates if c not in evaluator.required]
    via = evaluator._via_dest
    fixed = None
    if len(evaluator._required_rows):
        required = via[evaluator._required_rows]
        fixed = required.max(axis=0) if metric.maximize else required.min(axis=0)
    member = Member(
        via[evaluator._rows_of(candidates)],
        np.array(candidates, dtype=int),
        evaluator._dest_prefs,
        k,
        (),
        max_iterations,
        fixed,
    )
    _existing, chosen, cost = fused_best_response(
        [member], maximize=metric.maximize, unreachable=metric.unreachable_value
    )
    return BestResponseResult(
        node=evaluator.node,
        neighbors=frozenset(chosen[0]) | evaluator.required,
        cost=float(cost[0]),
        method="local-search",
    )


def best_response(
    evaluator: WiringEvaluator,
    k: int,
    *,
    exact_threshold: int = 12,
    max_iterations: int = 100,
) -> BestResponseResult:
    """Compute a best response, choosing exact vs local search automatically.

    Exhaustive enumeration is used when the number of k-subsets of the
    candidate pool is small (at most ``C(exact_threshold, k)``-ish work);
    otherwise the local-search approximation is used.
    """
    candidates = [c for c in evaluator.candidates if c not in evaluator.required]
    n_candidates = len(candidates)
    k_eff = min(k, n_candidates)
    # Rough subset count guard, avoiding overflow for large inputs.
    subsets = 1.0
    for i in range(k_eff):
        subsets *= (n_candidates - i) / (i + 1)
        if subsets > 5000:
            break
    if n_candidates <= exact_threshold and subsets <= 5000:
        return best_response_exact(evaluator, k)
    return best_response_local_search(evaluator, k, max_iterations=max_iterations)


def should_rewire(
    metric: Metric, current_cost: float, candidate_cost: float, epsilon: float = 0.0
) -> bool:
    """BR(ε) re-wiring rule: re-wire only for a relative improvement > ε.

    With ``epsilon = 0`` this reduces to plain BR (any strict improvement
    triggers a re-wire); the paper's Fig. 3 uses ε = 10% to trade a small
    amount of routing cost for far fewer re-wirings.
    """
    if epsilon < 0:
        raise ValidationError("epsilon must be non-negative")
    if not metric.better(candidate_cost, current_cost):
        return False
    return metric.improvement(candidate_cost, current_cost) > epsilon
