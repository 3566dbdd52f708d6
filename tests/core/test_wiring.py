"""Tests for Wiring and GlobalWiring."""

import pytest

from repro.core.wiring import GlobalWiring, Wiring
from repro.util.validation import ValidationError


class TestWiring:
    def test_of_constructor(self):
        wiring = Wiring.of(0, [1, 2, 3])
        assert wiring.degree == 3
        assert wiring.neighbors == frozenset({1, 2, 3})

    def test_self_link_rejected(self):
        with pytest.raises(ValidationError):
            Wiring.of(0, [0, 1])

    def test_donated_must_be_subset(self):
        with pytest.raises(ValidationError):
            Wiring.of(0, [1, 2], donated=[3])

    def test_replace(self):
        wiring = Wiring.of(0, [1, 2], donated=[2])
        replaced = wiring.replace(2, 3)
        assert replaced.neighbors == frozenset({1, 3})
        assert replaced.donated == frozenset({3})

    def test_replace_missing_raises(self):
        with pytest.raises(ValidationError):
            Wiring.of(0, [1]).replace(2, 3)

    def test_iteration_sorted(self):
        assert list(Wiring.of(0, [3, 1, 2])) == [1, 2, 3]

    def test_hashable(self):
        assert hash(Wiring.of(0, [1])) == hash(Wiring.of(0, [1]))


class TestGlobalWiring:
    def make(self):
        gw = GlobalWiring(4)
        gw.set_wiring(Wiring.of(0, [1, 2]), {1: 5.0, 2: 6.0})
        gw.set_wiring(Wiring.of(1, [2]), {2: 3.0})
        return gw

    def test_set_and_query(self):
        gw = self.make()
        assert gw.degree_of(0) == 2
        assert gw.weights_of(0) == {1: 5.0, 2: 6.0}
        assert [gw.wiring_of(v) is not None for v in range(3)] == [True, True, False]
        assert gw.to_graph().edge_count() == 3

    def test_missing_weight_rejected(self):
        gw = GlobalWiring(3)
        with pytest.raises(ValidationError):
            gw.set_wiring(Wiring.of(0, [1, 2]), {1: 5.0})

    def test_out_of_range_neighbor_rejected(self):
        gw = GlobalWiring(3)
        with pytest.raises(ValidationError):
            gw.set_wiring(Wiring.of(0, [5]), {5: 1.0})

    def test_to_graph(self):
        graph = self.make().to_graph()
        assert graph.weight(0, 1) == 5.0
        assert graph.weight(1, 2) == 3.0
        assert not graph.has_edge(2, 0)

    def test_to_graph_active_restriction(self):
        graph = self.make().to_graph(active=[0, 1])
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(0, 2)

    def test_residual_excludes_node(self):
        residual = self.make().residual(0)
        assert residual.wiring_of(0) is None
        assert residual.wiring_of(1) is not None

    def test_remove_wiring(self):
        gw = self.make()
        gw.remove_wiring(0)
        assert gw.degree_of(0) == 0
        assert gw.wiring_of(0) is None

    def test_copy_independent(self):
        gw = self.make()
        clone = gw.copy()
        clone.remove_wiring(0)
        assert gw.wiring_of(0) is not None

    def test_replacing_wiring_updates_weights(self):
        gw = self.make()
        gw.set_wiring(Wiring.of(0, [3]), {3: 9.0})
        assert gw.weights_of(0) == {3: 9.0}
        assert gw.degree_of(0) == 1

    def test_unchanged_reinstall_keeps_the_version(self):
        wiring = GlobalWiring(3)
        wiring.set_wiring(Wiring.of(0, [1]), {1: 1.0})
        version = wiring.version
        wiring.set_wiring(Wiring.of(0, [1]), {1: 1.0})  # identical: no bump
        assert wiring.version == version
        wiring.set_wiring(Wiring.of(0, [1]), {1: 2.0})
        assert wiring.version == version + 1

    def test_remove_wiring_bumps_the_version(self):
        wiring = GlobalWiring(3)
        wiring.set_wiring(Wiring.of(1, [2]), {2: 1.0})
        version = wiring.version
        wiring.remove_wiring(1)
        assert wiring.version == version + 1
        wiring.remove_wiring(0)  # unwired: a no-op
        assert wiring.version == version + 1
