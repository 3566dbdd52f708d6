"""End-to-end integration tests across subsystems."""

import numpy as np
import pytest

from repro.core.cost import DelayMetric
from repro.core.engine import EgoistEngine
from repro.core.policies import (
    BestResponsePolicy,
    FullMeshPolicy,
    KClosestPolicy,
    KRandomPolicy,
    KRegularPolicy,
    build_overlay,
)
from repro.core.providers import DelayMetricProvider
from repro.core.sampling import sampled_best_response, topology_biased_sample
from repro.netsim.planetlab import synthetic_planetlab
from repro.routing.linkstate import LinkStateProtocol


class TestHeadlineClaims:
    """The paper's core claims, verified end-to-end at reduced scale."""

    @pytest.fixture(scope="class")
    def setting(self):
        space, _nodes = synthetic_planetlab(24, seed=17)
        return DelayMetric(space.matrix)

    def test_br_beats_every_heuristic(self, setting):
        metric = setting
        br = build_overlay(BestResponsePolicy(), metric, 3, rng=0, br_rounds=3)
        br_cost = np.mean(list(metric.all_node_costs(br.to_graph()).values()))
        for policy in (KRandomPolicy(), KRegularPolicy(), KClosestPolicy()):
            other = build_overlay(policy, metric, 3, rng=0)
            other_cost = np.mean(list(metric.all_node_costs(other.to_graph()).values()))
            assert br_cost <= other_cost + 1e-9, type(policy).__name__

    def test_br_competitive_with_full_mesh(self, setting):
        """At k=4+ BR should be close to the full-mesh lower bound."""
        metric = setting
        br = build_overlay(BestResponsePolicy(), metric, 4, rng=1, br_rounds=3)
        mesh = build_overlay(FullMeshPolicy(), metric, 23, rng=1)
        br_cost = np.mean(list(metric.all_node_costs(br.to_graph()).values()))
        mesh_cost = np.mean(list(metric.all_node_costs(mesh.to_graph()).values()))
        assert br_cost <= mesh_cost * 1.6

    def test_scalability_nk_vs_n2(self, setting):
        metric = setting
        br = build_overlay(BestResponsePolicy(), metric, 3, rng=2, br_rounds=2)
        mesh = build_overlay(FullMeshPolicy(), metric, 23, rng=2)
        assert br.to_graph().edge_count() <= 24 * 3 + 24  # nk plus connectivity slack
        assert mesh.to_graph().edge_count() == 24 * 23


class TestProtocolIntegration:
    def test_linkstate_reconstructs_engine_overlay(self):
        space, _nodes = synthetic_planetlab(12, seed=8)
        provider = DelayMetricProvider(space, estimator="true")
        engine = EgoistEngine(provider, BestResponsePolicy(), 3, seed=0)
        engine.run(2)
        # Every node's protocol database should reconstruct the same overlay
        # the engine holds.
        reference = engine.wiring.to_graph()
        view = engine.protocol.view_of(0)
        assert sorted(view.edges()) == sorted(reference.edges())

    def test_newcomer_join_via_sampling(self):
        space, _nodes = synthetic_planetlab(30, seed=9)
        metric = DelayMetric(space.matrix)
        existing = list(range(29))
        overlay = build_overlay(
            BestResponsePolicy(), metric, 3, nodes=existing, rng=3, br_rounds=2
        )
        residual = overlay.to_graph(active=existing)
        sample = topology_biased_sample(
            29, metric, residual, 10, candidates=existing, rng=4
        )
        join = sampled_best_response(29, metric, residual, 3, sample)
        assert len(join.neighbors) == 3
        assert join.neighbors <= set(sample)
