"""Tests for the real-time redirection application."""

import numpy as np
import pytest

from repro.apps.realtime import RealTimeRedirectionApp, disjoint_path_count
from repro.core.cost import DelayMetric
from repro.core.policies import BestResponsePolicy, KRandomPolicy, build_overlay
from repro.netsim.planetlab import synthetic_planetlab
from repro.util.validation import ValidationError


@pytest.fixture
def realtime_setup():
    space, _nodes = synthetic_planetlab(16, seed=3)
    metric = DelayMetric(space.matrix)
    overlay = build_overlay(BestResponsePolicy(), metric, 4, rng=3, br_rounds=2)
    return metric, overlay


class TestRealTimeApp:
    def test_plan_paths_disjoint_and_valid(self, realtime_setup):
        _metric, overlay = realtime_setup
        app = RealTimeRedirectionApp(overlay)
        plan = app.plan(0, 9)
        seen_edges = set()
        for path in plan.paths:
            assert path[0] == 0 and path[-1] == 9
            for edge in zip(path[:-1], path[1:]):
                assert edge not in seen_edges
                seen_edges.add(edge)

    def test_path_delays_sorted_ascending(self, realtime_setup):
        _metric, overlay = realtime_setup
        app = RealTimeRedirectionApp(overlay)
        plan = app.plan(0, 9)
        assert plan.path_delays_ms == sorted(plan.path_delays_ms)

    def test_copies_cap(self, realtime_setup):
        _metric, overlay = realtime_setup
        app = RealTimeRedirectionApp(overlay)
        plan = app.plan(0, 9, copies=1)
        assert plan.redundancy <= 1

    def test_loss_survival_probability(self, realtime_setup):
        _metric, overlay = realtime_setup
        app = RealTimeRedirectionApp(overlay)
        plan = app.plan(0, 9)
        if plan.redundancy >= 2:
            single = 1 - 0.1
            multi = plan.loss_survival_probability(0.1)
            assert multi > single - 1e-9
        with pytest.raises(ValidationError):
            plan.loss_survival_probability(1.5)

    def test_redundancy_bounded_by_out_degree(self, realtime_setup):
        _metric, overlay = realtime_setup
        app = RealTimeRedirectionApp(overlay)
        for target in (5, 9, 13):
            count = app.disjoint_path_count(0, target)
            assert count <= max(
                overlay.to_graph().out_degree(0), overlay.to_graph().in_degree(target)
            )

    def test_more_neighbors_more_disjoint_paths(self):
        """The Fig. 11 trend: disjoint paths grow with k."""
        space, _nodes = synthetic_planetlab(16, seed=4)
        metric = DelayMetric(space.matrix)
        counts = {}
        for k in (2, 5):
            overlay = build_overlay(KRandomPolicy(), metric, k, rng=4)
            app = RealTimeRedirectionApp(overlay)
            pairs = [(i, j) for i in range(4) for j in range(8, 12)]
            counts[k] = app.mean_disjoint_paths(pairs)
        assert counts[5] > counts[2]

    def test_same_endpoints_rejected(self, realtime_setup):
        _metric, overlay = realtime_setup
        with pytest.raises(ValidationError):
            RealTimeRedirectionApp(overlay).plan(3, 3)


class TestSummary:
    def test_summary_keys(self, realtime_setup):
        _metric, overlay = realtime_setup
        summary = disjoint_path_count(overlay, rng=0, max_pairs=30)
        assert summary["pairs_evaluated"] == 30
        assert summary["mean_disjoint_paths"] > 0
