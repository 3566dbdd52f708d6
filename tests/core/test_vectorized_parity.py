"""Parity and property tests for the batched best-response kernels.

The kernels of :mod:`repro.core.best_response` must be an exact drop-in
for the interpreted oracle in ``tests/reference/scalar_best_response.py``:
bitwise-identical objective values, identical tie-breaking, identical
selected wirings, identical evaluation counts — on randomized instances
across all three metrics, with and without required (donated) links.
The chain is oracle == per-node kernels (here) == ``fused_best_response``
(``tests/core/test_lockstep.py``).

On top of parity, the classic approximation property is pinned: the
local-search best response is never *better* than the exact enumeration
(exact scans every k-subset, including whatever local search returns).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.best_response import (
    WiringEvaluator,
    _greedy_seed,
    best_response_exact,
    best_response_local_search,
)
from repro.core.cost import BandwidthMetric, DelayMetric, NodeLoadMetric
from repro.core.engine import EgoistEngine
from repro.core.policies import BestResponsePolicy
from repro.core.providers import DelayMetricProvider
from repro.netsim.delayspace import DelaySpace
from repro.routing.graph import OverlayGraph
from tests.reference.scalar_best_response import (
    ScalarBestResponsePolicy,
    scalar_best_response_exact,
    scalar_best_response_local_search,
    scalar_greedy_seed,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

METRIC_KINDS = ("delay", "bandwidth", "load")


def random_instance(seed: int, kind: str, n: int):
    """A random metric plus a sparse random residual graph (seeded)."""
    rng = np.random.default_rng(seed)
    if kind == "delay":
        delays = rng.uniform(1.0, 100.0, size=(n, n))
        np.fill_diagonal(delays, 0.0)
        metric = DelayMetric(delays)
    elif kind == "bandwidth":
        metric = BandwidthMetric(rng.uniform(0.5, 50.0, size=(n, n)))
    else:
        metric = NodeLoadMetric(rng.uniform(0.1, 5.0, size=n))
    graph = OverlayGraph(n)
    out_degree = int(rng.integers(1, 3))
    for u in range(1, n):
        others = [v for v in range(n) if v != u]
        for v in rng.choice(others, size=min(out_degree, len(others)), replace=False):
            graph.add_edge(u, int(v), metric.link_weight(u, int(v)))
    return metric, graph


def make_evaluator(seed: int, kind: str, n: int, with_required: bool):
    metric, graph = random_instance(seed, kind, n)
    required = frozenset({1}) if with_required else frozenset()
    return WiringEvaluator(0, metric, graph, required=required)


@pytest.mark.parametrize("kind", METRIC_KINDS)
@pytest.mark.parametrize("with_required", [False, True])
class TestKernelParity:
    """Batched kernels reproduce the scalar evaluator bit for bit."""

    def test_evaluate_batch_matches_scalar(self, kind, with_required):
        for seed in range(10):
            evaluator = make_evaluator(seed, kind, 6 + seed % 4, with_required)
            pool = [c for c in evaluator.candidates if c not in evaluator.required]
            wirings = [list(c) for c in itertools.combinations(pool, 2)]
            wirings.append([])  # empty wiring rides along (required-only)
            batched = evaluator.evaluate_batch(wirings)
            scalar = np.array([evaluator.evaluate(w) for w in wirings])
            assert np.array_equal(batched, scalar)

    def test_swap_costs_match_scalar_trials(self, kind, with_required):
        for seed in range(10):
            evaluator = make_evaluator(seed, kind, 7 + seed % 3, with_required)
            pool = [c for c in evaluator.candidates if c not in evaluator.required]
            current = pool[:3]
            batched = evaluator.swap_costs(current, pool)
            for o, out in enumerate(current):
                for i, inn in enumerate(pool):
                    if inn in current:
                        continue
                    trial = [inn if c == out else c for c in current]
                    assert batched[o, i] == evaluator.evaluate(trial)

    def test_greedy_seed_parity(self, kind, with_required):
        for seed in range(10):
            evaluator = make_evaluator(seed, kind, 6 + seed % 5, with_required)
            for k in (1, 2, 3):
                assert _greedy_seed(evaluator, k) == scalar_greedy_seed(evaluator, k)

    def test_exact_enumeration_parity(self, kind, with_required):
        for seed in range(10):
            evaluator = make_evaluator(seed, kind, 6 + seed % 4, with_required)
            for k in (0, 1, 2):
                fast = best_response_exact(evaluator, k)
                slow = scalar_best_response_exact(evaluator, k)
                assert fast.neighbors == slow.neighbors
                assert fast.cost == slow.cost
                assert fast.evaluations == slow.evaluations

    def test_local_search_parity(self, kind, with_required):
        for seed in range(10):
            evaluator = make_evaluator(seed, kind, 8 + seed % 4, with_required)
            for k in (1, 2, 3):
                fast = best_response_local_search(evaluator, k, rng=seed)
                slow = scalar_best_response_local_search(evaluator, k, rng=seed)
                assert fast.neighbors == slow.neighbors
                assert fast.cost == slow.cost
                assert fast.evaluations == slow.evaluations

    def test_local_search_parity_random_seed_wiring(self, kind, with_required):
        """Parity must also hold for random (non-greedy) starting wirings."""
        for seed in range(6):
            evaluator = make_evaluator(seed, kind, 9, with_required)
            fast = best_response_local_search(
                evaluator, 3, rng=seed, greedy_seed=False
            )
            slow = scalar_best_response_local_search(
                evaluator, 3, rng=seed, greedy_seed=False
            )
            assert fast.neighbors == slow.neighbors
            assert fast.cost == slow.cost


@st.composite
def parity_cases(draw):
    seed = draw(st.integers(0, 100_000))
    kind = draw(st.sampled_from(METRIC_KINDS))
    n = draw(st.integers(5, 11))
    k = draw(st.integers(1, 4))
    return seed, kind, n, k


class TestParityProperties:
    """Hypothesis sweeps over the same invariants."""

    @SETTINGS
    @given(parity_cases())
    def test_local_search_parity_property(self, case):
        seed, kind, n, k = case
        metric, graph = random_instance(seed, kind, n)
        evaluator = WiringEvaluator(0, metric, graph)
        fast = best_response_local_search(evaluator, k, rng=seed)
        slow = scalar_best_response_local_search(evaluator, k, rng=seed)
        assert fast.neighbors == slow.neighbors
        assert fast.cost == slow.cost

    @SETTINGS
    @given(parity_cases())
    def test_local_search_never_beats_exact(self, case):
        """Exact enumeration scans every k-subset, so no local-search
        outcome can be strictly better — on any metric."""
        seed, kind, n, k = case
        metric, graph = random_instance(seed, kind, n)
        evaluator = WiringEvaluator(0, metric, graph)
        exact = best_response_exact(evaluator, k)
        local = best_response_local_search(evaluator, k, rng=seed)
        assert not metric.better(local.cost, exact.cost)
        # And the local-search cost is self-consistent with its wiring.
        assert local.cost == evaluator.evaluate(local.neighbors)

    @SETTINGS
    @given(parity_cases())
    def test_exact_parity_property(self, case):
        seed, kind, n, k = case
        metric, graph = random_instance(seed, kind, n)
        evaluator = WiringEvaluator(0, metric, graph)
        fast = best_response_exact(evaluator, k)
        slow = scalar_best_response_exact(evaluator, k)
        assert fast.neighbors == slow.neighbors
        assert fast.cost == slow.cost


def test_engine_epochs_match_oracle_policy():
    """Sequential engine epochs are byte-identical whether nodes compute
    through the kernels or the oracle (n = 24 > exact_threshold, so the
    local-search branch runs; untimed)."""
    n, k, epochs = 24, 3, 3
    matrix = np.random.default_rng(99).uniform(5.0, 150.0, size=(n, n))
    np.fill_diagonal(matrix, 0.0)

    def run(policy):
        provider = DelayMetricProvider(
            DelaySpace(matrix, jitter_std=0.0), estimator="true"
        )
        engine = EgoistEngine(provider, policy, k=k, seed=7)
        records = [engine.run_epoch() for _ in range(epochs)]
        wirings = [
            engine.nodes[i].wiring.neighbors if engine.nodes[i].wiring else None
            for i in range(n)
        ]
        keys = [
            (r.epoch, r.rewirings, r.mean_cost.hex(), r.social_cost.hex(),
             r.linkstate_bits)
            for r in records
        ]
        return keys, wirings

    fast_keys, fast_wirings = run(BestResponsePolicy())
    slow_keys, slow_wirings = run(ScalarBestResponsePolicy())
    assert fast_keys[0][1] > 0, "the case must exercise re-wiring"
    assert fast_keys == slow_keys
    assert fast_wirings == slow_wirings


class TestEvaluatorNormalization:
    """The __post_init__ normalisation dedupes while preserving order."""

    def test_duplicate_candidates_are_dropped_in_order(self):
        metric, graph = random_instance(0, "delay", 6)
        evaluator = WiringEvaluator(
            0, metric, graph, candidates=[3, 1, 3, 2, 1, 5, 0]
        )
        assert evaluator.candidates == [3, 1, 2, 5]

    def test_duplicate_destinations_are_dropped_in_order(self):
        metric, graph = random_instance(0, "delay", 6)
        evaluator = WiringEvaluator(
            0, metric, graph, destinations=[4, 4, 2, 0, 2]
        )
        assert evaluator.destinations == [4, 2]

    def test_defaults_cover_everyone_else(self):
        metric, graph = random_instance(0, "delay", 6)
        evaluator = WiringEvaluator(2, metric, graph)
        assert evaluator.candidates == [0, 1, 3, 4, 5]
        assert evaluator.destinations == [0, 1, 3, 4, 5]

    def test_dedup_does_not_change_objective(self):
        metric, graph = random_instance(3, "delay", 7)
        plain = WiringEvaluator(0, metric, graph, candidates=[1, 2, 3])
        doubled = WiringEvaluator(0, metric, graph, candidates=[1, 2, 1, 3, 3])
        assert plain.candidates == doubled.candidates
        assert plain.evaluate([1, 3]) == doubled.evaluate([1, 3])
