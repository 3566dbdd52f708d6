"""Unit tests for :class:`~repro.core.EngineHistory` accessors.

The steady-state helpers previously mis-handled the edges exercised here:
empty histories, single-epoch histories, and ``warmup_fraction=1.0``
(which used to silently fall back to averaging over *all* epochs,
including the warm-up it was asked to exclude).
"""

from __future__ import annotations

import math

import pytest

from repro.core import EngineHistory, EpochRecord
from repro.util.validation import ValidationError


def make_record(epoch: int, mean_cost: float, efficiency: float = 0.5) -> EpochRecord:
    return EpochRecord(
        epoch=epoch,
        time=epoch * 60.0,
        active_nodes=10,
        rewirings=epoch % 3,
        mean_cost=mean_cost,
        mean_efficiency=efficiency,
        social_cost=mean_cost * 10,
        linkstate_bits=1000 + epoch,
    )


def history_of(*costs: float) -> EngineHistory:
    return EngineHistory(
        records=[make_record(i, c, efficiency=c / 10.0) for i, c in enumerate(costs)]
    )


class TestAccessors:
    def test_empty_history(self):
        history = EngineHistory()
        assert history.rewirings_per_epoch() == []
        assert history.mean_costs() == []
        assert math.isnan(history.steady_state_mean_cost())
        assert math.isnan(history.steady_state_efficiency())

    def test_series_accessors(self):
        history = history_of(30.0, 20.0, 10.0)
        assert history.mean_costs() == [30.0, 20.0, 10.0]
        assert history.rewirings_per_epoch() == [0, 1, 2]


class TestSteadyState:
    def test_default_warmup_halves_the_run(self):
        history = history_of(40.0, 30.0, 20.0, 10.0)
        assert history.steady_state_mean_cost() == pytest.approx(15.0)
        assert history.steady_state_efficiency() == pytest.approx(1.5)

    def test_single_record_returns_that_record(self):
        history = history_of(42.0)
        for fraction in (0.0, 0.5, 1.0):
            assert history.steady_state_mean_cost(fraction) == pytest.approx(42.0)
            assert history.steady_state_efficiency(fraction) == pytest.approx(4.2)

    def test_warmup_one_uses_only_the_final_epoch(self):
        history = history_of(100.0, 50.0, 10.0)
        assert history.steady_state_mean_cost(1.0) == pytest.approx(10.0)
        assert history.steady_state_efficiency(1.0) == pytest.approx(1.0)

    def test_warmup_zero_averages_everything(self):
        history = history_of(30.0, 20.0, 10.0)
        assert history.steady_state_mean_cost(0.0) == pytest.approx(20.0)

    def test_warmup_fraction_out_of_range_is_rejected(self):
        history = history_of(1.0, 2.0)
        for bad in (-0.1, 1.5):
            with pytest.raises(ValidationError):
                history.steady_state_mean_cost(bad)
            with pytest.raises(ValidationError):
                history.steady_state_efficiency(bad)
