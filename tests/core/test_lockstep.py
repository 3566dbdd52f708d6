"""The fused best-response kernel against the interpreted oracle.

:func:`repro.core.best_response.fused_best_response` must reproduce, for
every member of a group, the greedy-seeded local search of
``tests/reference/scalar_best_response.py`` — one
:meth:`WiringEvaluator.evaluate` call per trial wiring: the same
neighbours, bitwise the same costs.  The whole-epoch parity suites
(``test_engine_batch.py``, ``test_deployment_batch.py``) only reach the
kernel through the batches; here it is driven directly, over ragged
groups no single experiment produces.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.best_response import Member, WiringEvaluator, fused_best_response
from repro.core.cost import (
    DISCONNECTION_COST,
    BandwidthMetric,
    DelayMetric,
    NodeLoadMetric,
)
from repro.routing.graph import OverlayGraph
from repro.routing.shortest_path import shortest_path_costs_multi
from repro.routing.widest_path import widest_path_bandwidths_multi
from tests.reference.scalar_best_response import scalar_best_response_local_search

# The module, not the package's re-export of its ``best_response`` function.
best_response_module = importlib.import_module("repro.core.best_response")

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

N = 10


def make_member(
    rng, kind, h, k, cap, wired, edge_prob, hazard=None, *, t=None, required=0,
    shuffle=False,
):
    """One random opportunity: its reference evaluator and its ``Member``.

    The node sees ``h`` of the other ``N - 1`` nodes as candidates (a
    churned-down membership) and, by default, the same nodes as
    destinations; ``t`` draws that many destinations of its own instead,
    ``required`` adds always-in links outside the candidates (the
    member's ``fixed`` row), and ``shuffle`` hands candidates and
    destinations over in caller order rather than ascending.  The
    residual graph is sparse enough that some hops reach nobody, which
    is what forces the unreachable clamp.  ``wired`` incumbents are
    drawn from the hops (0: an unwired node).

    ``hazard`` plants what the kernel's clamp-and-weight fold must
    survive.  ``"breaker"`` violates its precondition: a link announced
    at the disconnection cost, as a link-down failure does, so finite
    vias exceed ``unreachable`` (additive kinds), or an infinite direct
    bandwidth, so a via is ``+inf`` (bandwidth).  ``"fixed-breaker"``
    does the same to a required link only, which every destination
    reaches — so only the ``fixed`` row breaks it.  ``"zero-pref"``
    keeps the precondition but zeroes the preference of some
    destinations, which sit under unreachable cells in a sparse residual
    — the one place a fold could produce ``0 * inf``.
    """
    node = int(rng.integers(N))
    others = [v for v in range(N) if v != node]
    picked = [int(v) for v in rng.choice(others, size=h + required, replace=False)]
    hops, req = sorted(picked[:h]), picked[h:]
    down = hops[int(rng.integers(h))] if hazard == "breaker" else None
    if hazard == "fixed-breaker":
        down = req[0]
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
    dests = hops
    if t is not None:
        dests = sorted(int(v) for v in rng.choice(others, size=t, replace=False))
    world = sorted(set(hops) | set(req) | set(dests))
    graph = OverlayGraph(N)
    for u in world:
        for v in world:
            if u != v and (
                rng.random() < edge_prob or (hazard == "fixed-breaker" and u == down)
            ):
                graph.add_edge(u, v, metric.link_weight(u, v))
    prefs = rng.uniform(0.05, 1.0, size=(N, N))
    if hazard == "zero-pref":
        prefs[node, rng.random(N) < 0.5] = 0.0
    incumbent = [int(v) for v in rng.choice(hops, size=min(wired, h), replace=False)]
    if shuffle:
        hops = [int(v) for v in rng.permutation(hops)]
        dests = [int(v) for v in rng.permutation(dests)]
    evaluator = WiringEvaluator(
        node=node,
        metric=metric,
        residual_graph=graph,
        candidates=hops,
        preferences=prefs,
        destinations=dests,
        required=frozenset(req),
    )
    sweep = widest_path_bandwidths_multi if metric.maximize else shortest_path_costs_multi
    combine = np.minimum if metric.maximize else np.add
    rows = np.array(hops + req, dtype=int)
    cols = np.array(dests, dtype=int)
    direct = metric.link_weight_row(node)[rows][:, None]
    via = combine(direct, sweep(graph, list(rows))[:, cols])
    fixed = None
    if req:
        fixed = via[h:].max(axis=0) if metric.maximize else via[h:].min(axis=0)
    member = Member(
        via[:h], np.array(hops, dtype=int), prefs[node, cols], k, incumbent, cap, fixed
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
        reference = scalar_best_response_local_search(
            evaluator, member.k, max_iterations=member.max_iterations
        )
        assert existing[d] == evaluator.evaluate(member.incumbent)
        assert len(set(chosen[d])) == len(chosen[d])
        assert frozenset(chosen[d]) | evaluator.required == reference.neighbors
        assert cost[d] == reference.cost
    return existing, chosen, cost


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

    @pytest.mark.parametrize("kind", ["delay", "load", "bandwidth"])
    def test_mixed_group_members_match_oracle_and_their_own_call(self, kind):
        """Members with and without a fixed row, destination widths apart
        from candidate widths (none at all, too), caller-ordered
        candidates, k = 0 and caps 0/1/100 in one group: each member's
        result is its oracle's and that of the member called on its own
        — a member does not depend on the group it rides in."""
        rng = np.random.default_rng(38)
        pairs = [
            make_member(rng, kind, 5, 2, 100, 2, 0.3, required=2, shuffle=True),
            make_member(rng, kind, 3, 3, 0, 1, 0.4, t=7, shuffle=True),
            make_member(rng, kind, 7, 2, 1, 0, 0.2, t=2, required=1),
            make_member(rng, kind, 6, 4, 100, 3, 0.15, t=9, shuffle=True),
            make_member(rng, kind, 4, 0, 100, 1, 0.3, required=1),
            make_member(rng, kind, 3, 2, 100, 1, 0.3, t=0),
            make_member(rng, kind, 4, 1, 100, 0, 1.0),
        ]
        existing, chosen, cost = assert_kernel_matches_reference(pairs)
        metric = pairs[0][0].metric
        for d, (_evaluator, member) in enumerate(pairs):
            alone = fused_best_response(
                [member], maximize=metric.maximize, unreachable=metric.unreachable_value
            )
            assert alone[0][0] == existing[d]
            assert alone[1][0] == chosen[d]
            assert alone[2][0] == cost[d]

    @staticmethod
    def _hazard_groups(kind, hazard):
        """A mixed group — the hazard member between a clean one and an
        unwired clean one, ragged widths — and the hazard member alone."""
        rng = np.random.default_rng(58)
        required = 1 if hazard == "fixed-breaker" else 0
        mixed = [
            make_member(rng, kind, 4, 2, 100, 2, 0.4),
            make_member(rng, kind, 6, 3, 100, 4, 0.15, hazard, required=required),
            make_member(rng, kind, 9, 3, 1, 0, 0.3),
        ]
        return mixed, mixed[1:2]

    @staticmethod
    def _record_fold_decisions(monkeypatch):
        """The list every ``_fold_is_exact`` verdict from here on lands in."""
        decisions = []
        check = best_response_module._fold_is_exact

        def recording(*args, **kwargs):
            decisions.append(check(*args, **kwargs))
            return decisions[-1]

        monkeypatch.setattr(best_response_module, "_fold_is_exact", recording)
        return decisions

    @pytest.mark.parametrize("kind", ["delay", "load", "bandwidth"])
    def test_fold_precondition_breakers_clamp_per_pass(self, kind, monkeypatch):
        """A link announced at the disconnection cost (finite vias above
        ``unreachable``) or an infinite direct bandwidth (a ``+inf`` via)
        makes the clamp non-monotone: the group must take the per-pass
        branch, and an unchecked fold provably gets it wrong."""
        self._assert_breaker_clamps_per_pass(kind, "breaker", monkeypatch)

    def test_fold_check_covers_the_fixed_row(self, monkeypatch):
        """A required link announced at the disconnection cost breaks the
        precondition in the ``fixed`` row alone."""
        self._assert_breaker_clamps_per_pass("delay", "fixed-breaker", monkeypatch)

    def _assert_breaker_clamps_per_pass(self, kind, hazard, monkeypatch):
        decisions = self._record_fold_decisions(monkeypatch)
        for group in self._hazard_groups(kind, hazard):
            assert_kernel_matches_reference(group)
        assert decisions == [False, False]
        monkeypatch.setattr(
            best_response_module, "_fold_is_exact", lambda *args, **kwargs: True
        )
        for group in self._hazard_groups(kind, hazard):
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


def _exact_swap_scores(weighted, loo):
    """Every single-swap score as the kernel's exact pass computes it on
    a full-width group: ``(A, k, C)``."""
    trial = np.minimum(loo[:, :, None, :], weighted[:, None, :, :])
    return trial.sum(axis=-1)


class TestNoImprovingSwapCertificate:
    """The certificate retires a lane only when its exact swap pass would
    have found nothing; with it forced off every result is the same."""

    @staticmethod
    def _assert_same(on, off):
        assert on[0].tobytes() == off[0].tobytes()
        assert on[1] == off[1]
        assert on[2].tobytes() == off[2].tobytes()

    @staticmethod
    def _run(members, *, certify):
        """The kernel with the certificate tried at every budget it can
        cover (k >= 3, past its pay-off rule) or never."""
        with pytest.MonkeyPatch.context() as patch:
            passes = 2 if certify else 10**9
            patch.setattr(best_response_module, "_CERTIFICATE_PASSES", passes)
            return fused_best_response(
                members, maximize=False, unreachable=DISCONNECTION_COST
            )

    @SETTINGS
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(
            st.tuples(
                st.integers(3, N - 3),  # width h
                st.integers(3, N + 2),  # k
                st.sampled_from([1, 2, 100]),
                st.integers(0, 4),
                st.sampled_from([0.0, 0.15, 0.4, 1.0]),
                st.sampled_from([None, None, "zero-pref", "breaker"]),
                st.sampled_from([None, 3, 6]),  # own destinations (ragged)
                st.integers(0, 2),  # required links: a fixed row
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_results_equal_the_certificate_forced_off(self, seed, params):
        rng = np.random.default_rng(seed)
        pairs = [
            make_member(rng, ("delay", "load")[i % 2], h, k, cap, wired, density, hazard,
                        t=t, required=required)
            for i, (h, k, cap, wired, density, hazard, t, required) in enumerate(params)
        ]
        members = [member for _evaluator, member in pairs]
        self._assert_same(
            self._run(members, certify=True), self._run(members, certify=False)
        )
        assert_kernel_matches_reference(pairs)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(
            st.tuples(
                st.integers(4, 24),  # candidates
                st.integers(1, 24),  # destinations: ragged widths
                st.integers(3, 9),  # k
                st.sampled_from(["spread", "ties", "tenths"]),
                st.booleans(),  # a fixed row
                st.sampled_from([0.0, 0.3]),  # share of zero preferences
                st.integers(0, 3),  # incumbent size
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_dense_blocks_equal_the_certificate_forced_off(self, seed, params):
        """Dense via blocks, where most searches do end certified: with
        near-ties (small integers, tenths) and zero preferences too."""
        rng = np.random.default_rng(seed)
        members = []
        for c, t, k, values, fixed, zero, wired in params:
            if values == "ties":
                via = rng.integers(1, 4, size=(c + 1, t)).astype(float)
            elif values == "tenths":
                via = rng.integers(1, 5, size=(c + 1, t)) / 10.0
            else:
                via = rng.uniform(1.0, 100.0, size=(c + 1, t))
            prefs = rng.uniform(0.1, 1.0, size=t)
            prefs[rng.random(t) < zero] = 0.0
            ids = rng.permutation(40)[:c]
            incumbent = [int(v) for v in rng.choice(ids, size=min(wired, c), replace=False)]
            members.append(
                Member(via[:c], ids, prefs, k, incumbent, 100, via[c] if fixed else None)
            )
        self._assert_same(
            self._run(members, certify=True), self._run(members, certify=False)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),  # lanes
        st.integers(3, 6),  # k
        st.integers(1, 40),  # destinations
        st.sampled_from(["ties", "tenths", "spread"]),
    )
    def test_a_one_ulp_improving_swap_is_never_certified(self, seed, lanes, k, t, values):
        """Plant the current cost one ulp above the best swap's exact
        score: a swap improves, so the certificate must not hold."""
        rng = np.random.default_rng(seed)
        c = k + int(rng.integers(1, 8))
        if values == "ties":  # equal costs everywhere, zero columns too
            weighted = rng.integers(0, 3, size=(lanes, c + 1, t)).astype(float)
        elif values == "tenths":  # sums that differ in the last bit
            weighted = rng.integers(0, 4, size=(lanes, c + 1, t)) / 10.0
        else:
            weighted = rng.uniform(0.0, 1e3, size=(lanes, c + 1, t))
        rows = np.full((lanes, k + 1), c)  # slot k: the fixed row
        for a in range(lanes):
            rows[a, :k] = rng.choice(c, size=k, replace=False)
        cur = weighted[np.arange(lanes)[:, None], rows]
        loo = np.stack([np.delete(cur, o, axis=1).min(axis=1) for o in range(k)], axis=1)
        taken = np.zeros((lanes, c), dtype=bool)
        taken[np.arange(lanes)[:, None], rows[:, :k]] = True
        scores = _exact_swap_scores(weighted[:, :c], loo)
        scores[np.broadcast_to(taken[:, None, :], scores.shape)] = np.inf
        best = scores.reshape(lanes, -1).min(axis=1)
        work = np.empty(2 * lanes * c * t)
        args = (weighted[:, :c], cur, loo, taken[:, None, :], np.zeros((lanes, k, 1), bool))
        improvable = np.nextafter(best, np.inf)
        certified = best_response_module._no_improving_swap(*args, improvable, work)
        assert not certified.any()
        # Well below the best score nothing improves, and it must hold.
        assert best_response_module._no_improving_swap(*args, best / 2, work)[best > 0].all()

    def test_every_search_ends_certified_on_a_static_fixture(self):
        """Each member's last pass is the certificate's, not the swap
        tensor's, and forcing the certificate off changes no result (one
        member improves once before it is certified)."""
        rng = np.random.default_rng(5)
        members = [
            Member(rng.uniform(1.0, 100.0, (30, 25)), np.arange(30),
                   rng.uniform(0.1, 1.0, 25), 6, (), 100)
            for _ in range(3)
        ]
        certified = []
        original = best_response_module._no_improving_swap

        def recording(*args):
            stays = original(*args)
            certified.append(stays.tolist())
            return stays

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(best_response_module, "_no_improving_swap", recording)
            on = self._run(members, certify=True)
        assert certified == [[True, False, True], [True]]
        self._assert_same(on, self._run(members, certify=False))
