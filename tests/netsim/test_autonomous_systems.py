"""Tests for the AS / multihoming model."""

import numpy as np
import pytest

from repro.netsim.autonomous_systems import ASTopology
from repro.util.validation import ValidationError


def _nodes_in(topo, as_id):
    return [i for i in range(topo.n) if topo.as_of(i) == as_id]


class TestASTopology:
    def test_every_node_assigned(self):
        topo = ASTopology(30, n_ases=8, seed=0)
        assert len(topo.node_as) == 30
        assert set(topo.node_as) <= set(range(8))

    def test_every_as_nonempty(self):
        topo = ASTopology(30, n_ases=8, seed=1)
        for as_id in range(8):
            assert len(_nodes_in(topo, as_id)) >= 1

    def test_multihoming_degrees_within_choices(self):
        topo = ASTopology(40, seed=2)
        for as_id in range(topo.n_ases):
            assert 1 <= topo.multihoming_degree(as_id) <= 4

    def test_intra_as_uncapped(self):
        topo = ASTopology(20, n_ases=3, seed=3)
        as0_nodes = _nodes_in(topo, 0)
        if len(as0_nodes) >= 2:
            assert topo.session_rate_limit(as0_nodes[0], as0_nodes[1]) == float("inf")

    def test_inter_as_capped(self):
        topo = ASTopology(20, n_ases=5, seed=4)
        src = _nodes_in(topo, 0)[0]
        dst = _nodes_in(topo, 1)[0]
        cap = topo.session_rate_limit(src, dst)
        assert np.isfinite(cap)
        assert cap > 0

    def test_egress_deterministic(self):
        topo = ASTopology(20, n_ases=5, seed=5)
        src = _nodes_in(topo, 0)[0]
        dst = _nodes_in(topo, 1)[0]
        assert topo.egress_link(src, dst) == topo.egress_link(src, dst)

    def test_describe_keys(self):
        topo = ASTopology(20, seed=7)
        desc = topo.describe()
        assert desc["nodes"] == 20
        assert 0 <= desc["single_homed_fraction"] <= 1

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            ASTopology(0)
        with pytest.raises(ValidationError):
            ASTopology(5, n_ases=10)
        with pytest.raises(ValidationError):
            ASTopology(5, multihoming_choices=((1, 0.5), (2, 0.2)))

    def test_deterministic_given_seed(self):
        a = ASTopology(25, seed=8)
        b = ASTopology(25, seed=8)
        assert np.array_equal(a.node_as, b.node_as)
