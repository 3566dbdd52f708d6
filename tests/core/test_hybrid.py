"""Tests for HybridBR."""

import numpy as np
import pytest

from repro.core.backbone import backbone_links
from repro.core.cost import DelayMetric
from repro.core.hybrid import HybridBRPolicy
from repro.core.policies import BestResponsePolicy, build_overlay
from repro.routing.graph import OverlayGraph
from repro.util.validation import ValidationError


@pytest.fixture
def metric12():
    rng = np.random.default_rng(9)
    delays = rng.uniform(5, 120, size=(12, 12))
    delays = (delays + delays.T) / 2
    np.fill_diagonal(delays, 0)
    return DelayMetric(delays)


class TestHybridBRPolicy:
    def test_invalid_k2(self):
        with pytest.raises(ValidationError):
            HybridBRPolicy(k2=3)
        with pytest.raises(ValidationError):
            HybridBRPolicy(k2=-2)

    def test_donated_links_match_backbone(self, metric12):
        policy = HybridBRPolicy(k2=2)
        active = list(range(12))
        donated = policy.donated_links_for(4, active)
        assert donated == backbone_links(active, 2)[4]

    def test_select_includes_donated_and_respects_budget(self, metric12):
        policy = HybridBRPolicy(k2=2)
        residual = OverlayGraph(12)
        chosen = policy.select(0, 5, metric12, residual, rng=0)
        donated = policy.donated_links_for(0, list(range(12)))
        assert donated <= chosen
        assert len(chosen) <= 5

    def test_select_wiring_marks_donated(self, metric12):
        policy = HybridBRPolicy(k2=2)
        residual = OverlayGraph(12)
        wiring = policy.select_wiring(0, 5, metric12, residual)
        assert wiring.donated <= wiring.neighbors
        assert len(wiring.donated) == 2

    def test_k_equal_k2_means_pure_backbone(self, metric12):
        policy = HybridBRPolicy(k2=2)
        residual = OverlayGraph(12)
        chosen = policy.select(0, 2, metric12, residual, rng=0)
        assert chosen == policy.donated_links_for(0, list(range(12)))


class TestBuildHybridOverlay:
    def test_overlay_connected_and_degrees(self, metric12):
        wiring = build_overlay(HybridBRPolicy(k2=2), metric12, 4, rng=1)
        graph = wiring.to_graph()
        assert graph.is_strongly_connected()
        for node in range(12):
            assert graph.out_degree(node) <= 4

    def test_backbone_links_present(self, metric12):
        wiring = build_overlay(HybridBRPolicy(k2=2), metric12, 4, rng=1)
        expected = backbone_links(list(range(12)), 2)
        graph = wiring.to_graph()
        for node, targets in expected.items():
            for target in targets:
                assert graph.has_edge(node, target)

    def test_hybrid_cost_between_backbone_and_pure_br(self, metric12):
        """HybridBR sacrifices some cost vs pure BR but beats the bare ring."""
        hybrid = build_overlay(HybridBRPolicy(k2=2), metric12, 4, rng=2)
        pure = build_overlay(BestResponsePolicy(), metric12, 4, rng=2, br_rounds=3)
        ring = build_overlay(HybridBRPolicy(k2=2), metric12, 2, rng=2)
        cost = lambda w: np.mean(list(metric12.all_node_costs(w.to_graph()).values()))
        assert cost(pure) <= cost(hybrid) * 1.05
        assert cost(hybrid) <= cost(ring) + 1e-9

    def test_backbone_survives_any_single_departure(self, metric12):
        """With k2=2 the donated ring reconnects around any one failure."""
        wiring = build_overlay(HybridBRPolicy(k2=2), metric12, 4, rng=3)
        graph = wiring.to_graph()
        for departed in range(12):
            survivors = [v for v in range(12) if v != departed]
            sub = graph.restricted(survivors)
            # The selfish links may or may not help, but the backbone plus
            # selfish links must keep survivors mutually reachable for most
            # departures; allow the worst case of one unreachable pair.
            reachable = sub.reachable_from(survivors[0])
            assert len(reachable & set(survivors)) >= len(survivors) - 1
