"""Tests for the multipath file-transfer application."""

import numpy as np
import pytest

from repro.apps.multipath import MultipathTransferApp
from repro.core.cost import BandwidthMetric
from repro.core.policies import BestResponsePolicy, build_overlay
from repro.netsim.autonomous_systems import ASTopology
from repro.netsim.bandwidth import BandwidthModel
from repro.util.validation import ValidationError


@pytest.fixture
def multipath_setup():
    n = 16
    bandwidth = BandwidthModel(n, seed=2)
    as_topology = ASTopology(n, n_ases=5, seed=2)
    metric = BandwidthMetric(bandwidth.matrix())
    overlay = build_overlay(BestResponsePolicy(), metric, 4, rng=2, br_rounds=2)
    return overlay, bandwidth, as_topology


class TestMultipathApp:
    def test_plan_has_one_session_per_neighbor(self, multipath_setup):
        overlay, bandwidth, topo = multipath_setup
        app = MultipathTransferApp(overlay, bandwidth, topo)
        plan = app.plan(0, 9)
        assert len(plan.sessions) == overlay.degree_of(0)

    def test_max_sessions_cap(self, multipath_setup):
        overlay, bandwidth, topo = multipath_setup
        app = MultipathTransferApp(overlay, bandwidth, topo)
        plan = app.plan(0, 9, max_sessions=2)
        assert len(plan.sessions) == 2

    def test_session_rates_nonnegative(self, multipath_setup):
        overlay, bandwidth, topo = multipath_setup
        app = MultipathTransferApp(overlay, bandwidth, topo)
        plan = app.plan(3, 11)
        assert all(s.rate_mbps >= 0 for s in plan.sessions)

    def test_aggregate_at_least_best_session(self, multipath_setup):
        overlay, bandwidth, topo = multipath_setup
        app = MultipathTransferApp(overlay, bandwidth, topo)
        plan = app.plan(2, 13)
        if plan.sessions:
            assert plan.aggregate_rate_mbps >= max(s.rate_mbps for s in plan.sessions) - 1e-9

    def test_gain_at_least_for_most_pairs(self, multipath_setup):
        """Multipath should help (or at least not hurt) on average."""
        overlay, bandwidth, topo = multipath_setup
        app = MultipathTransferApp(overlay, bandwidth, topo)
        gains = []
        for target in range(1, 16):
            plan = app.plan(0, target)
            if np.isfinite(plan.gain):
                gains.append(plan.gain)
        assert np.mean(gains) >= 0.8

    def test_maxflow_is_an_upper_bound_on_sessions(self, multipath_setup):
        overlay, bandwidth, topo = multipath_setup
        app = MultipathTransferApp(overlay, bandwidth, topo)
        for target in (5, 9, 12):
            plan = app.plan(0, target)
            assert plan.maxflow_rate_mbps >= plan.aggregate_rate_mbps * 0.99

    def test_same_egress_sessions_capped(self, multipath_setup):
        overlay, bandwidth, topo = multipath_setup
        app = MultipathTransferApp(overlay, bandwidth, topo)
        plan = app.plan(1, 10)
        by_link = {}
        for session in plan.sessions:
            by_link.setdefault(session.egress_link_id, 0.0)
            by_link[session.egress_link_id] += session.rate_mbps
        src_as = topo.as_of(1)
        for link_id, total in by_link.items():
            if link_id >= 0:
                cap = topo.peering_links[src_as][link_id].session_rate_cap_mbps
                assert total <= cap + 1e-6

    def test_same_source_target_rejected(self, multipath_setup):
        overlay, bandwidth, topo = multipath_setup
        app = MultipathTransferApp(overlay, bandwidth, topo)
        with pytest.raises(ValidationError):
            app.plan(0, 0)

    def test_size_mismatch_rejected(self, multipath_setup):
        overlay, bandwidth, _topo = multipath_setup
        with pytest.raises(ValidationError):
            MultipathTransferApp(overlay, bandwidth, ASTopology(5, seed=0))

