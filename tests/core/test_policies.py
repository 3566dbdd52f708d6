"""Tests for neighbour-selection policies and overlay construction."""

import numpy as np
import pytest

from repro.core.cost import DelayMetric
from repro.core.policies import (
    BestResponsePolicy,
    FullMeshPolicy,
    KClosestPolicy,
    KRandomPolicy,
    KRegularPolicy,
    STANDARD_POLICIES,
    build_overlay,
    enforce_connectivity_cycle,
)
from repro.core.wiring import GlobalWiring, Wiring
from repro.routing.graph import OverlayGraph


@pytest.fixture
def metric10():
    rng = np.random.default_rng(3)
    delays = rng.uniform(5, 100, size=(10, 10))
    delays = (delays + delays.T) / 2
    np.fill_diagonal(delays, 0)
    return DelayMetric(delays)


def empty_graph(n):
    return OverlayGraph(n)


class TestKRandom:
    def test_degree_and_no_self(self, metric10):
        policy = KRandomPolicy()
        chosen = policy.select(0, 4, metric10, empty_graph(10), rng=0)
        assert len(chosen) == 4
        assert 0 not in chosen

    def test_respects_candidates(self, metric10):
        policy = KRandomPolicy()
        chosen = policy.select(
            0, 3, metric10, empty_graph(10), candidates=[1, 2, 3], rng=0
        )
        assert chosen == {1, 2, 3}

    def test_k_capped_by_pool(self, metric10):
        policy = KRandomPolicy()
        chosen = policy.select(0, 99, metric10, empty_graph(10), rng=0)
        assert len(chosen) == 9


class TestKClosest:
    def test_picks_minimum_delay(self, metric10):
        policy = KClosestPolicy()
        chosen = policy.select(0, 3, metric10, empty_graph(10), rng=0)
        weights = [(metric10.link_weight(0, j), j) for j in range(1, 10)]
        weights.sort()
        assert chosen == {j for _w, j in weights[:3]}

    def test_bandwidth_picks_maximum(self, bandwidth_metric_small):
        policy = KClosestPolicy()
        n = bandwidth_metric_small.size
        chosen = policy.select(0, 2, bandwidth_metric_small, empty_graph(n), rng=0)
        weights = sorted(
            (bandwidth_metric_small.link_weight(0, j) for j in range(1, n)),
            reverse=True,
        )
        # Ties are common in the bandwidth model, so check values not ids:
        # every chosen link must be at least as wide as the 2nd widest.
        assert len(chosen) == 2
        assert all(
            bandwidth_metric_small.link_weight(0, j) >= weights[1] - 1e-9
            for j in chosen
        )


class TestKRegular:
    def test_offsets_paper_formula(self):
        # n = 13, k = 3: offsets 1 + (j-1)*12/4 = 1, 4, 7.
        assert KRegularPolicy.offsets(13, 3) == [1, 4, 7]

    def test_offsets_unique_and_positive(self):
        offsets = KRegularPolicy.offsets(20, 6)
        assert len(offsets) == len(set(offsets)) == 6
        assert all(1 <= o < 20 for o in offsets)

    def test_same_pattern_for_all_nodes(self, metric10):
        policy = KRegularPolicy()
        chosen0 = policy.select(0, 3, metric10, empty_graph(10), rng=0)
        chosen5 = policy.select(5, 3, metric10, empty_graph(10), rng=0)
        assert {(c - 0) % 10 for c in chosen0} == {(c - 5) % 10 for c in chosen5}

    def test_degree(self, metric10):
        policy = KRegularPolicy()
        assert len(policy.select(2, 4, metric10, empty_graph(10), rng=0)) == 4


class TestFullMeshAndBR:
    def test_full_mesh_selects_everyone(self, metric10):
        chosen = FullMeshPolicy().select(3, 2, metric10, empty_graph(10), rng=0)
        assert chosen == set(range(10)) - {3}

    def test_best_response_degree(self, metric10):
        chosen = BestResponsePolicy().select(0, 3, metric10, empty_graph(10), rng=0)
        assert len(chosen) == 3
        assert 0 not in chosen

    def test_best_response_beats_random_for_own_cost(self, metric10):
        from repro.core.best_response import WiringEvaluator

        residual = empty_graph(10)
        # give the residual a ring so destinations are reachable
        for i in range(10):
            if i != 0:
                nxt = (i % 9) + 1
                if nxt != i:
                    residual.add_edge(i, nxt, metric10.link_weight(i, nxt))
        evaluator = WiringEvaluator(0, metric10, residual)
        br = BestResponsePolicy().select(0, 3, metric10, residual, rng=0)
        rnd = KRandomPolicy().select(0, 3, metric10, residual, rng=0)
        assert evaluator.evaluate(br) <= evaluator.evaluate(rnd) + 1e-9

    def test_epsilon_name(self):
        assert "0.1" in BestResponsePolicy(epsilon=0.1).name

    def test_standard_policy_registry(self):
        assert set(STANDARD_POLICIES) == {
            "k-random",
            "k-closest",
            "k-regular",
            "best-response",
            "full-mesh",
        }


class TestBuildOverlay:
    def test_every_node_wired_with_degree_k(self, metric10):
        for name, policy in STANDARD_POLICIES.items():
            if name == "full-mesh":
                continue
            wiring = build_overlay(policy, metric10, 3, rng=1, br_rounds=2)
            graph = wiring.to_graph()
            for node in range(10):
                assert graph.out_degree(node) >= 3, name

    def test_overlays_strongly_connected(self, metric10):
        for name, policy in STANDARD_POLICIES.items():
            wiring = build_overlay(policy, metric10, 2, rng=2, br_rounds=2)
            assert wiring.to_graph().is_strongly_connected(), name

    def test_full_mesh_has_all_links(self, metric10):
        wiring = build_overlay(FullMeshPolicy(), metric10, 9, rng=0)
        assert wiring.to_graph().edge_count() == 10 * 9

    def test_br_overlay_better_than_random(self, metric10):
        br = build_overlay(BestResponsePolicy(), metric10, 3, rng=3, br_rounds=3)
        rnd = build_overlay(KRandomPolicy(), metric10, 3, rng=3)
        br_cost = np.mean(list(metric10.all_node_costs(br.to_graph()).values()))
        rnd_cost = np.mean(list(metric10.all_node_costs(rnd.to_graph()).values()))
        assert br_cost < rnd_cost

    def test_subset_of_nodes(self, metric10):
        wiring = build_overlay(
            KRandomPolicy(), metric10, 2, nodes=[0, 1, 2, 3, 4], rng=0
        )
        assert {v for v in range(10) if wiring.wiring_of(v) is not None} == {0, 1, 2, 3, 4}
        graph = wiring.to_graph()
        for u, v, _w in graph.edges():
            assert u in {0, 1, 2, 3, 4}
            assert v in {0, 1, 2, 3, 4}


class TestEnforceConnectivity:
    def test_adds_cycle_when_disconnected(self, metric10):
        wiring = GlobalWiring(10)
        # Everyone wires only to node 0 — strongly disconnected.
        for node in range(1, 10):
            wiring.set_wiring(Wiring.of(node, [0]), {0: metric10.link_weight(node, 0)})
        wiring.set_wiring(Wiring.of(0, [1]), {1: metric10.link_weight(0, 1)})
        added = enforce_connectivity_cycle(wiring, metric10)
        assert added > 0
        assert wiring.to_graph().is_strongly_connected()

    def test_no_change_when_connected(self, metric10):
        wiring = GlobalWiring(10)
        for node in range(10):
            nxt = (node + 1) % 10
            wiring.set_wiring(
                Wiring.of(node, [nxt]), {nxt: metric10.link_weight(node, nxt)}
            )
        assert enforce_connectivity_cycle(wiring, metric10) == 0
