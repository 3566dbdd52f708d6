"""Tests for the cheating model."""

import numpy as np
import pytest

from repro.core.cheating import CheatingModel
from repro.core.cost import BandwidthMetric, DelayMetric, NodeLoadMetric
from repro.util.validation import ValidationError


class TestCheatingModel:
    def test_delay_inflation_only_on_riders_rows(self, small_delay_metric):
        model = CheatingModel(small_delay_metric, free_riders=[2], inflation_factor=2.0)
        announced = model.announced_metric()
        truth = small_delay_metric
        for j in range(5):
            if j == 2:
                continue
            assert announced.link_weight(2, j) == pytest.approx(
                2.0 * truth.link_weight(2, j)
            )
            assert announced.link_weight(0, j if j != 0 else 1) == pytest.approx(
                truth.link_weight(0, j if j != 0 else 1)
            )

    def test_bandwidth_deflation(self, bandwidth_metric_small):
        model = CheatingModel(bandwidth_metric_small, [1], inflation_factor=2.0)
        announced = model.announced_metric()
        assert announced.link_weight(1, 0) == pytest.approx(
            bandwidth_metric_small.link_weight(1, 0) / 2.0
        )

    def test_node_load_inflation(self):
        truth = NodeLoadMetric([1.0, 2.0, 3.0])
        model = CheatingModel(truth, [0], inflation_factor=3.0)
        announced = model.announced_metric()
        assert announced.link_weight(0, 1) == pytest.approx(3.0)
        assert announced.link_weight(1, 0) == pytest.approx(2.0)

    def test_is_free_rider(self, small_delay_metric):
        model = CheatingModel(small_delay_metric, [3])
        assert 3 in model.free_riders
        assert 1 not in model.free_riders

    def test_out_of_range_rider_rejected(self, small_delay_metric):
        with pytest.raises(ValidationError):
            CheatingModel(small_delay_metric, [99])

    def test_nonpositive_inflation_rejected(self, small_delay_metric):
        with pytest.raises(ValidationError):
            CheatingModel(small_delay_metric, [1], inflation_factor=0.0)

    def test_deflation_models_opposite_abuse(self, small_delay_metric):
        model = CheatingModel(small_delay_metric, [1], inflation_factor=0.5)
        announced = model.announced_metric()
        assert announced.link_weight(1, 0) == pytest.approx(
            0.5 * small_delay_metric.link_weight(1, 0)
        )

