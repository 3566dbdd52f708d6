"""Tests for the node load model."""

import numpy as np
import pytest

from repro.netsim.load import NodeLoadModel
from repro.util.validation import ValidationError


class TestNodeLoadModel:
    def test_loads_nonnegative(self, load_model8):
        assert np.all(load_model8.true_loads() >= 0)
        assert np.all(load_model8.measured_loads() >= 0)

    def test_measured_defined_initially(self, load_model8):
        for node in range(8):
            assert load_model8.measured_loads()[node] >= 0

    def test_heterogeneous_base_loads(self):
        model = NodeLoadModel(50, seed=0)
        loads = model.true_loads()
        # Heavy-tailed base loads should show substantial spread.
        assert loads.max() > 3 * np.median(loads)

    def test_advance_changes_loads(self, load_model8):
        before = load_model8.true_loads().copy()
        load_model8.advance(10)
        assert not np.allclose(before, load_model8.true_loads())

    def test_ewma_smoother_than_instantaneous(self):
        model = NodeLoadModel(5, seed=1, volatility=2.0)
        true_series = []
        measured_series = []
        for _ in range(30):
            model.advance(1)
            true_series.append(model.true_load(0))
            measured_series.append(model.measured_loads()[0])
        assert np.std(np.diff(measured_series)) < np.std(np.diff(true_series))

    def test_deterministic_given_seed(self):
        a = NodeLoadModel(10, seed=3)
        b = NodeLoadModel(10, seed=3)
        a.advance(5)
        b.advance(5)
        assert np.allclose(a.true_loads(), b.true_loads())

    def test_invalid_n(self):
        with pytest.raises(ValidationError):
            NodeLoadModel(0)
