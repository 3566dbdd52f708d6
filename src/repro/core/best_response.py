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
``(candidates x hops x destinations)`` view of the same matrix.  The
batched kernels (:meth:`WiringEvaluator.evaluate_batch`,
:meth:`WiringEvaluator.swap_costs`) are what the local search and exact
enumeration are built on.  They use the same elementwise reductions as
the one-wiring :meth:`WiringEvaluator.evaluate` (exact min/max, multiply
then pairwise sum), so objective values are bitwise identical to scoring
each wiring on its own; ``tests/reference/scalar_best_response.py`` is
the interpreted oracle the parity tests hold them to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.cost import Metric, uniform_preferences
from repro.core.route_cache import ResidualRouteCache
from repro.core.wiring import Wiring
from repro.routing.graph import OverlayGraph
from repro.util.rng import SeedLike, as_generator
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
        The overlay graph *without* ``node``'s outgoing links.
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
    route_cache:
        Optional :class:`~repro.core.route_cache.ResidualRouteCache`; when
        supplied (and stamped with a current token by its owner), the
        multi-source residual route-value sweep — the expensive part of
        construction — is reused instead of recomputed.
    """

    node: int
    metric: Metric
    residual_graph: OverlayGraph
    candidates: Optional[Sequence[int]] = None
    preferences: Optional[np.ndarray] = None
    destinations: Optional[Sequence[int]] = None
    required: FrozenSet[int] = frozenset()
    route_cache: Optional[ResidualRouteCache] = None

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
            resid = self._residual_route_values()
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

    def _residual_route_values(self) -> np.ndarray:
        """``(hops x n)`` residual route values, via the cache if possible."""
        hops_key = tuple(self._relevant_hops)
        if self.route_cache is not None:
            cached = self.route_cache.get(self.node, hops_key)
            if cached is not None:
                return cached
        if self.metric.maximize:
            from repro.routing.widest_path import widest_path_bandwidths_multi

            resid = widest_path_bandwidths_multi(
                self.residual_graph, list(self._relevant_hops)
            )
        else:
            from repro.routing.shortest_path import shortest_path_costs_multi

            resid = shortest_path_costs_multi(
                self.residual_graph, list(self._relevant_hops)
            )
        if self.route_cache is not None:
            self.route_cache.put(self.node, hops_key, resid)
        return resid

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

    def swap_costs(
        self, current: Sequence[int], candidates: Sequence[int]
    ) -> np.ndarray:
        """Objective values of every single-swap neighbour of ``current``.

        Entry ``[o, c]`` is ``evaluate(current with current[o] replaced by
        candidates[c])`` — the full neighbourhood the local search scans —
        computed as one broadcast over the via matrix: a leave-one-out
        reduction over the incumbent's rows (top-2 trick) combined with
        every candidate's row.  Values are bitwise identical to the scalar
        :meth:`evaluate` on each trial wiring.

        ``current`` must not contain duplicates; ``candidates`` may
        include members of ``current`` (callers mask those columns).
        """
        cur = [int(c) for c in current]
        if len(set(cur)) != len(cur):
            raise ValidationError("current wiring must not contain duplicates")
        k = len(cur)
        cand_rows = np.array(self._rows_of(candidates), dtype=int)
        n_cand = len(cand_rows)
        n_dest = len(self._dest_array)
        if k == 0 or n_cand == 0:
            return np.zeros((k, n_cand))
        if n_dest == 0:
            return np.zeros((k, n_cand))
        maximize = self.metric.maximize
        combine = np.maximum if maximize else np.minimum
        identity = -np.inf if maximize else np.inf

        cur_vals = self._via_dest[np.array(self._rows_of(cur), dtype=int)]  # (k, D)
        if len(self._required_rows):
            req_vals = self._via_dest[self._required_rows]
            fixed = req_vals.max(axis=0) if maximize else req_vals.min(axis=0)
        else:
            fixed = np.full(n_dest, identity)
        if k == 1:
            loo = np.full((1, n_dest), identity)
        else:
            # Leave-one-out reduction via the top-2 trick: dropping row o
            # changes the column reduction only where o was the extreme.
            order = np.argsort(cur_vals, axis=0)
            cols = np.arange(n_dest)
            ext_row = order[-1] if maximize else order[0]
            ext = cur_vals[ext_row, cols]
            second = cur_vals[order[-2] if maximize else order[1], cols]
            loo = np.where(
                np.arange(k)[:, None] == ext_row[None, :],
                second[None, :],
                ext[None, :],
            )
        base = combine(loo, fixed[None, :])  # (k, D)

        out = np.empty((k, n_cand))
        chunk = max(1, _KERNEL_CHUNK_CELLS // max(1, k * n_dest))
        for start in range(0, n_cand, chunk):
            rows = cand_rows[start : start + chunk]
            trial = combine(base[:, None, :], self._via_dest[rows][None, :, :])
            self._clamp_inplace(trial)
            trial *= self._dest_prefs
            out[:, start : start + len(rows)] = trial.sum(axis=2)
        return out

    def better(self, a: float, b: float) -> bool:
        """Delegate to the metric's objective direction."""
        return self.metric.better(a, b)


@dataclass(frozen=True)
class BestResponseResult:
    """Outcome of a best-response computation."""

    node: int
    neighbors: FrozenSet[int]
    cost: float
    evaluations: int
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
    evaluations = 0
    maximize = evaluator.metric.maximize
    combos = itertools.combinations(candidates, k)
    while True:
        batch = list(itertools.islice(combos, 2048))
        if not batch:
            break
        costs = evaluator.evaluate_batch(batch)
        pos = int(np.argmax(costs)) if maximize else int(np.argmin(costs))
        evaluations += len(batch)
        if best_cost is None or evaluator.better(float(costs[pos]), best_cost):
            best_cost = float(costs[pos])
            best_set = batch[pos]
    if best_set is None:
        best_set = ()
        best_cost = evaluator.evaluate(())
        evaluations += 1
    return BestResponseResult(
        node=evaluator.node,
        neighbors=frozenset(best_set) | evaluator.required,
        cost=float(best_cost),
        evaluations=evaluations,
        method="exact",
    )


def _greedy_seed(evaluator: WiringEvaluator, k: int) -> List[int]:
    """Greedy marginal-gain seeding for the local search.

    Every remaining candidate's marginal gain is scored in one kernel
    call per step, maintaining the running per-destination reduction of
    the chosen set; ties resolve to the first candidate in order.
    """
    candidates = [c for c in evaluator.candidates if c not in evaluator.required]
    target = min(k, len(candidates))
    chosen: List[int] = []
    if target <= 0:
        return chosen
    maximize = evaluator.metric.maximize
    combine = np.maximum if maximize else np.minimum
    identity = -np.inf if maximize else np.inf
    sentinel = -np.inf if maximize else np.inf
    pick = np.argmax if maximize else np.argmin
    n_dest = len(evaluator._dest_array)
    cand_rows = np.array(evaluator._rows_of(candidates), dtype=int)
    # Running reduction over chosen + required rows (pre-clamp values).
    if len(evaluator._required_rows):
        req_vals = evaluator._via_dest[evaluator._required_rows]
        running = req_vals.max(axis=0) if maximize else req_vals.min(axis=0)
    else:
        running = np.full(n_dest, identity)
    taken = np.zeros(len(candidates), dtype=bool)
    for _ in range(target):
        if n_dest:
            trial = combine(running[None, :], evaluator._via_dest[cand_rows])
            evaluator._clamp_inplace(trial)
            trial *= evaluator._dest_prefs
            costs = trial.sum(axis=1)
        else:
            costs = np.zeros(len(candidates))
        costs[taken] = sentinel
        pos = int(pick(costs))
        taken[pos] = True
        chosen.append(candidates[pos])
        if n_dest:
            running = combine(running, evaluator._via_dest[cand_rows[pos]])
    return chosen


def best_response_local_search(
    evaluator: WiringEvaluator,
    k: int,
    *,
    rng: SeedLike = None,
    max_iterations: int = 100,
    seed_wiring: Optional[Iterable[int]] = None,
    greedy_seed: bool = True,
) -> BestResponseResult:
    """Approximate best response via single-swap local search.

    Starting from a greedy (or supplied) wiring, repeatedly try replacing
    one chosen neighbour with one unchosen candidate, accepting the best
    improving swap, until no swap improves the objective or
    ``max_iterations`` passes are exhausted.  This is the "fast approximate
    version based on local search" the paper deploys (verified there to be
    within ~5% of optimal).

    Every pass scores all ``k * (m - k)`` single-swap neighbours in one
    :meth:`WiringEvaluator.swap_costs` broadcast; ties go to the first
    swap in out-neighbour-major order.
    """
    rng = as_generator(rng)
    candidates = [c for c in evaluator.candidates if c not in evaluator.required]
    k = min(k, len(candidates))
    evaluations = 0

    if seed_wiring is not None:
        # Duplicates dropped in first-occurrence order: swap_costs needs a
        # duplicate-free incumbent.
        allowed = set(candidates)
        current = [
            c for c in _ordered_unique(seed_wiring, evaluator.node) if c in allowed
        ][:k]
        # Top up with random candidates if the seed is short.
        missing = k - len(current)
        if missing > 0:
            pool = [c for c in candidates if c not in current]
            extra = rng.choice(len(pool), size=missing, replace=False) if pool else []
            current += [pool[i] for i in np.atleast_1d(extra)]
    elif greedy_seed:
        current = _greedy_seed(evaluator, k)
        evaluations += k * max(1, len(candidates))
    else:
        idx = rng.choice(len(candidates), size=k, replace=False) if candidates else []
        current = [candidates[i] for i in np.atleast_1d(idx)]

    current_cost = evaluator.evaluate(current)
    evaluations += 1
    maximize = evaluator.metric.maximize
    sentinel = -np.inf if maximize else np.inf

    for _ in range(int(max_iterations)):
        if not current or not candidates:
            break
        chosen_set = set(current)
        costs = evaluator.swap_costs(current, candidates)
        mask = np.fromiter(
            (c in chosen_set for c in candidates), dtype=bool, count=len(candidates)
        )
        costs[:, mask] = sentinel
        evaluations += len(current) * int(np.count_nonzero(~mask))
        flat = costs.ravel()
        pos = int(np.argmax(flat)) if maximize else int(np.argmin(flat))
        if not evaluator.better(float(flat[pos]), current_cost):
            break
        out_node = current[pos // len(candidates)]
        in_node = candidates[pos % len(candidates)]
        current = [in_node if c == out_node else c for c in current]
        current_cost = float(flat[pos])

    return BestResponseResult(
        node=evaluator.node,
        neighbors=frozenset(current) | evaluator.required,
        cost=float(current_cost),
        evaluations=evaluations,
        method="local-search",
    )


def best_response(
    evaluator: WiringEvaluator,
    k: int,
    *,
    exact_threshold: int = 12,
    rng: SeedLike = None,
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
    return best_response_local_search(
        evaluator, k, rng=rng, max_iterations=max_iterations
    )


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
