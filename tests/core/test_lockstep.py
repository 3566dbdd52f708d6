"""The fused best-response kernel against its per-member reference.

:func:`repro.core.lockstep.fused_best_response` must be an exact drop-in
for running, member by member, a :class:`WiringEvaluator` plus
:func:`best_response_local_search` with the greedy seed: the same
neighbours, bitwise the same costs.  The whole-epoch parity suites
(``test_engine_batch.py``, ``test_deployment_batch.py``) only reach the
kernel through the batches; here it is driven directly, over ragged
groups no single experiment produces.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.lockstep as lockstep
from repro.core.best_response import WiringEvaluator, best_response_local_search
from repro.core.cost import (
    DISCONNECTION_COST,
    BandwidthMetric,
    DelayMetric,
    NodeLoadMetric,
)
from repro.core.lockstep import Member, fused_best_response
from repro.routing.graph import OverlayGraph
from repro.routing.shortest_path import shortest_path_costs_multi
from repro.routing.widest_path import widest_path_bandwidths_multi

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

N = 10


def make_member(rng, kind, h, k, cap, wired, edge_prob, hazard=None):
    """One random opportunity: its reference evaluator and its ``Member``.

    The node sees ``h`` of the other ``N - 1`` nodes (a churned-down
    membership); the residual graph over them is sparse enough that
    some hops reach nobody, which is what forces the unreachable clamp.
    ``wired`` incumbents are drawn from the hops (0: an unwired node).

    ``hazard`` plants what the kernel's clamp-and-weight fold must
    survive.  ``"breaker"`` violates its precondition: a link announced
    at the disconnection cost, as a link-down failure does, so finite
    vias exceed ``unreachable`` (additive kinds), or an infinite direct
    bandwidth, so a via is ``+inf`` (bandwidth).  ``"zero-pref"`` keeps
    the precondition but zeroes the preference of some destinations,
    which sit under unreachable cells in a sparse residual — the one
    place a fold could produce ``0 * inf``.
    """
    node = int(rng.integers(N))
    others = [v for v in range(N) if v != node]
    hops = sorted(int(v) for v in rng.choice(others, size=h, replace=False))
    down = hops[int(rng.integers(h))] if hazard == "breaker" else None
    if kind == "delay":
        delays = rng.uniform(1.0, 100.0, size=(N, N))
        np.fill_diagonal(delays, 0.0)
        if down is not None:
            delays[node, down] = delays[down, node] = DISCONNECTION_COST
        metric = DelayMetric(delays)
    elif kind == "load":  # every out-link of a node costs the same: ties
        loads = rng.integers(1, 4, size=N).astype(float)
        if down is not None:
            loads[node] = DISCONNECTION_COST
        metric = NodeLoadMetric(loads)
    else:
        bandwidth = rng.uniform(0.5, 50.0, size=(N, N))
        if down is not None:
            bandwidth[node, down] = np.inf
        metric = BandwidthMetric(bandwidth)
    graph = OverlayGraph(N)
    for u in hops:
        for v in hops:
            if u != v and rng.random() < edge_prob:
                graph.add_edge(u, v, metric.link_weight(u, v))
    prefs = rng.uniform(0.05, 1.0, size=(N, N))
    if hazard == "zero-pref":
        prefs[node, rng.random(N) < 0.5] = 0.0
    incumbent = [int(v) for v in rng.choice(hops, size=min(wired, h), replace=False)]
    evaluator = WiringEvaluator(
        node=node,
        metric=metric,
        residual_graph=graph,
        candidates=hops,
        preferences=prefs,
        destinations=hops,
    )
    sweep = widest_path_bandwidths_multi if metric.maximize else shortest_path_costs_multi
    ids = np.array(hops, dtype=int)
    member = Member(
        sweep(graph, hops),
        ids,
        metric.link_weight_row(node)[ids],
        prefs[node, ids],
        k,
        incumbent,
        cap,
    )
    return evaluator, member


def assert_kernel_matches_reference(pairs):
    evaluators, members = zip(*pairs)
    metric = evaluators[0].metric
    existing, chosen, cost = fused_best_response(
        members, maximize=metric.maximize, unreachable=metric.unreachable_value
    )
    assert len(existing) == len(chosen) == len(cost) == len(members)
    for d, (evaluator, member) in enumerate(pairs):
        reference = best_response_local_search(
            evaluator, member.k, max_iterations=member.max_iterations, greedy_seed=True
        )
        assert existing[d] == evaluator.evaluate(member.incumbent)
        assert len(set(chosen[d])) == len(chosen[d])
        assert frozenset(chosen[d]) == reference.neighbors
        assert cost[d] == reference.cost


member_params = st.tuples(
    st.integers(1, N - 1),  # width h
    st.integers(1, N + 2),  # k, including k >= h
    st.sampled_from([0, 1, 2, 100]),  # local-search cap
    st.integers(0, 4),  # incumbent size, 0 = unwired
    st.sampled_from([0.0, 0.15, 0.4, 1.0]),  # residual edge density
    st.sampled_from([None, None, "breaker", "zero-pref"]),  # see make_member
)


class TestFusedBestResponse:
    @SETTINGS
    @given(
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.lists(member_params, min_size=1, max_size=6),
    )
    def test_random_ragged_groups_match_per_member_search(self, seed, maximize, params):
        rng = np.random.default_rng(seed)
        pairs = [
            make_member(
                rng,
                "bandwidth" if maximize else ("delay", "load")[i % 2],
                *param,
            )
            for i, param in enumerate(params)
        ]
        assert_kernel_matches_reference(pairs)

    @pytest.mark.parametrize("kind", ["delay", "bandwidth"])
    def test_named_corner_cases_in_one_group(self, kind):
        """Every case the issue lists, pinned rather than left to chance:
        mixed widths, k >= h, caps 0/1/100, an unwired node, a fully
        disconnected residual (all clamps) next to a complete one (none)."""
        rng = np.random.default_rng(15)
        pairs = [
            make_member(rng, kind, 1, 3, 100, 1, 0.0),
            make_member(rng, kind, 4, 2, 0, 2, 0.2),
            make_member(rng, kind, 7, 9, 1, 0, 1.0),
            make_member(rng, kind, 9, 3, 100, 3, 0.1),
        ]
        assert_kernel_matches_reference(pairs)
        # Caller order is preserved although the kernel sorts by budget.
        assert_kernel_matches_reference(pairs[::-1])

    @pytest.mark.parametrize("kind", ["delay", "load", "bandwidth"])
    @pytest.mark.parametrize("h", [1, 2, 6])
    def test_width_one_group(self, kind, h):
        """A single member takes the uniform-width fused-sum fast path."""
        for seed in range(8):
            rng = np.random.default_rng(seed)
            assert_kernel_matches_reference(
                [make_member(rng, kind, h, 1 + seed % 4, 100, seed % 3, 0.3)]
            )

    @staticmethod
    def _hazard_groups(kind, hazard):
        """A mixed group — the hazard member between a clean one and an
        unwired clean one, ragged widths — and the hazard member alone."""
        rng = np.random.default_rng(58)
        mixed = [
            make_member(rng, kind, 4, 2, 100, 2, 0.4),
            make_member(rng, kind, 6, 3, 100, 4, 0.15, hazard),
            make_member(rng, kind, 9, 3, 1, 0, 0.3),
        ]
        return mixed, mixed[1:2]

    @staticmethod
    def _record_fold_decisions(monkeypatch):
        """The list every ``_fold_is_exact`` verdict from here on lands in."""
        decisions = []
        check = lockstep._fold_is_exact

        def recording(*args, **kwargs):
            decisions.append(check(*args, **kwargs))
            return decisions[-1]

        monkeypatch.setattr(lockstep, "_fold_is_exact", recording)
        return decisions

    @pytest.mark.parametrize("kind", ["delay", "load", "bandwidth"])
    def test_fold_precondition_breakers_clamp_per_pass(self, kind, monkeypatch):
        """A link announced at the disconnection cost (finite vias above
        ``unreachable``) or an infinite direct bandwidth (a ``+inf`` via)
        makes the clamp non-monotone: the group must take the per-pass
        branch, and an unchecked fold provably gets it wrong."""
        decisions = self._record_fold_decisions(monkeypatch)
        for group in self._hazard_groups(kind, "breaker"):
            assert_kernel_matches_reference(group)
        assert decisions == [False, False]
        monkeypatch.setattr(lockstep, "_fold_is_exact", lambda *args, **kwargs: True)
        for group in self._hazard_groups(kind, "breaker"):
            with pytest.raises(AssertionError):
                assert_kernel_matches_reference(group)

    @pytest.mark.parametrize("kind", ["delay", "load", "bandwidth"])
    def test_zero_preferences_over_unreachable_cells_fold_to_zero(self, kind, monkeypatch):
        """The fold multiplies preferences into clamped values only: a
        zero preference never meets an inf, be it an unreachable cell or
        the all-identity row short wirings point at."""
        decisions = self._record_fold_decisions(monkeypatch)
        with np.errstate(invalid="raise"):
            for group in self._hazard_groups(kind, "zero-pref"):
                assert_kernel_matches_reference(group)
        assert decisions == [True, True]
