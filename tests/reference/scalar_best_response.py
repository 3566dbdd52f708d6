"""Interpreted best-response oracle (test-only).

The plain per-wiring loops the batched kernels of
:mod:`repro.core.best_response` replaced: one
:meth:`WiringEvaluator.evaluate` call per trial wiring, no broadcasts.
Production code has no such tier any more; it lives here so the tests
can hold the kernels to it — bitwise-equal costs, identical wirings and
tie-breaks: ``tests/core/test_vectorized_parity.py`` the evaluator's
exact enumeration and local search, ``tests/core/test_lockstep.py`` the
fused kernel on whole groups.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.core.best_response import BestResponseResult, WiringEvaluator
from repro.core.policies import BestResponsePolicy


def value_for_destination(
    evaluator: WiringEvaluator, neighbors: Iterable[int], j: int
) -> float:
    """Routing value from the evaluator's node to ``j`` via ``neighbors``.

    Delay/load: ``min_w (d_iw + D_resid[w, j])``; when ``w == j`` the
    residual term is zero (the direct link reaches the destination).
    Bandwidth: ``max_w min(bw_iw, B_resid[w, j])``; when ``w == j`` the
    value is just the direct link's bandwidth.
    """
    metric = evaluator.metric
    rows = [evaluator._hop_index[w] for w in neighbors if w in evaluator._hop_index]
    if not rows:
        return metric.unreachable_value
    column = evaluator._via[rows, j]
    if metric.maximize:
        best = float(np.max(column))
        if best <= 0 or not np.isfinite(best):
            return metric.unreachable_value
        return best
    best = float(np.min(column))
    if not np.isfinite(best):
        return metric.unreachable_value
    return best


def _selfish_candidates(evaluator: WiringEvaluator) -> List[int]:
    return [c for c in evaluator.candidates if c not in evaluator.required]


def scalar_best_response_exact(evaluator: WiringEvaluator, k: int) -> BestResponseResult:
    """Exhaustive enumeration, one ``evaluate`` per k-subset; ties fall to
    the first subset in enumeration order."""
    candidates = _selfish_candidates(evaluator)
    k = min(k, len(candidates))
    best_set: Tuple[int, ...] = ()
    best_cost: Optional[float] = None
    # k <= len(candidates), so there is always at least one subset.
    for combo in itertools.combinations(candidates, k):
        cost = evaluator.evaluate(combo)
        if best_cost is None or evaluator.better(cost, best_cost):
            best_cost = cost
            best_set = combo
    return BestResponseResult(
        node=evaluator.node,
        neighbors=frozenset(best_set) | evaluator.required,
        cost=float(best_cost),
        method="exact",
    )


def scalar_greedy_seed(evaluator: WiringEvaluator, k: int) -> List[int]:
    """Greedy marginal-gain seeding, one ``evaluate`` per trial; ties
    resolve to the first candidate in order."""
    candidates = _selfish_candidates(evaluator)
    target = min(k, len(candidates))
    chosen: List[int] = []
    while len(chosen) < target:
        best_candidate = None
        best_cost = None
        for c in candidates:
            if c in chosen:
                continue
            cost = evaluator.evaluate(chosen + [c])
            if best_cost is None or evaluator.better(cost, best_cost):
                best_cost = cost
                best_candidate = c
        chosen.append(best_candidate)
    return chosen


def scalar_best_response_local_search(
    evaluator: WiringEvaluator, k: int, *, max_iterations: int = 100
) -> BestResponseResult:
    """Greedy-seeded single-swap local search, one ``evaluate`` per trial
    swap; takes the first best swap in out-neighbour-major order."""
    candidates = _selfish_candidates(evaluator)
    current = scalar_greedy_seed(evaluator, k)
    current_cost = evaluator.evaluate(current)

    for _ in range(int(max_iterations)):
        if not current or not candidates:
            break
        best_swap = None
        best_cost = current_cost
        chosen_set = set(current)
        for out_node in current:
            for in_node in candidates:
                if in_node in chosen_set:
                    continue
                trial = [in_node if c == out_node else c for c in current]
                cost = evaluator.evaluate(trial)
                if evaluator.better(cost, best_cost):
                    best_cost = cost
                    best_swap = (out_node, in_node)
        if best_swap is None:
            break
        out_node, in_node = best_swap
        current = [in_node if c == out_node else c for c in current]
        current_cost = best_cost

    return BestResponseResult(
        node=evaluator.node,
        neighbors=frozenset(current) | evaluator.required,
        cost=float(current_cost),
        method="local-search",
    )


def scalar_best_response(
    evaluator: WiringEvaluator,
    k: int,
    *,
    exact_threshold: int = 12,
    max_iterations: int = 100,
) -> BestResponseResult:
    """``best_response``'s exact-vs-local-search dispatch over the oracle."""
    n_candidates = len(_selfish_candidates(evaluator))
    subsets = 1.0
    for i in range(min(k, n_candidates)):
        subsets *= (n_candidates - i) / (i + 1)
        if subsets > 5000:
            break
    if n_candidates <= exact_threshold and subsets <= 5000:
        return scalar_best_response_exact(evaluator, k)
    return scalar_best_response_local_search(
        evaluator, k, max_iterations=max_iterations
    )


class ScalarBestResponsePolicy(BestResponsePolicy):
    """:class:`BestResponsePolicy` computing through the oracle.

    Only meaningful on a sequential :class:`~repro.core.EgoistEngine`,
    whose nodes call ``policy.select``; the lockstep batches recognise
    any ``BestResponsePolicy`` and score it with the fused kernel.
    """

    def compute(
        self, node, k, metric, residual_graph, *, evaluator, **_sets
    ) -> BestResponseResult:
        # Engine nodes always hand over the evaluator they scored the
        # current wiring on; the candidate/destination sets ride in it.
        return scalar_best_response(
            evaluator,
            k,
            exact_threshold=self.exact_threshold,
            max_iterations=self.max_iterations,
        )
