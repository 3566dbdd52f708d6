"""Tests for churn schedules and generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.churn.models import (
    ChurnSchedule,
    OnOffSession,
    parametrized_churn,
    trace_driven_churn,
)
from repro.util.validation import ValidationError


class TestOnOffSession:
    def test_duration(self):
        session = OnOffSession(node=0, start=10.0, end=25.0)
        assert session.duration == 15.0

    def test_invalid_interval(self):
        with pytest.raises(ValidationError):
            OnOffSession(node=0, start=10.0, end=10.0)


class TestChurnSchedule:
    def make(self):
        sessions = [
            OnOffSession(0, 0.0, 100.0),
            OnOffSession(1, 0.0, 40.0),
            OnOffSession(1, 60.0, 100.0),
            OnOffSession(2, 20.0, 80.0),
        ]
        return ChurnSchedule(3, 100.0, sessions)

    def test_active_at(self):
        schedule = self.make()
        assert schedule.active_at(0.0) == {0, 1}
        assert schedule.active_at(30.0) == {0, 1, 2}
        assert schedule.active_at(50.0) == {0, 2}
        assert schedule.active_at(70.0) == {0, 1, 2}
        assert schedule.active_at(90.0) == {0, 1}

    def test_events_ordered(self):
        events = self.make().events
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_churn_rate_positive(self):
        assert self.make().churn_rate() > 0

    def test_static_membership_zero_churn(self):
        sessions = [OnOffSession(i, 0.0, 50.0) for i in range(4)]
        schedule = ChurnSchedule(4, 50.0, sessions)
        assert schedule.churn_rate() == 0.0

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ValidationError):
            ChurnSchedule(2, 50.0, [OnOffSession(5, 0.0, 10.0)])


class TestTraceDrivenChurn:
    def test_sessions_within_horizon(self):
        schedule = trace_driven_churn(10, 3600.0, seed=0)
        for session in schedule.sessions:
            assert 0.0 <= session.start < session.end <= 3600.0

    def test_high_availability_by_default(self):
        schedule = trace_driven_churn(20, 7200.0, seed=1)
        on_time = sum(session.end - session.start for session in schedule.sessions)
        assert on_time / (20 * 7200.0) > 0.6

    def test_deterministic(self):
        a = trace_driven_churn(10, 1000.0, seed=5)
        b = trace_driven_churn(10, 1000.0, seed=5)
        assert a.churn_rate() == pytest.approx(b.churn_rate())

    def test_shorter_sessions_more_churn(self):
        slow = trace_driven_churn(20, 3600.0, mean_on=3000, mean_off=600, seed=2)
        fast = trace_driven_churn(20, 3600.0, mean_on=200, mean_off=40, seed=2)
        assert fast.churn_rate() > slow.churn_rate()

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            trace_driven_churn(0, 100.0)
        with pytest.raises(Exception):
            trace_driven_churn(5, -10.0)


class TestParametrizedChurn:
    @pytest.mark.parametrize("target", [1e-3, 1e-2])
    def test_calibration_close_to_target(self, target):
        schedule = parametrized_churn(20, 1200.0, target, seed=0)
        realised = schedule.churn_rate()
        assert realised == pytest.approx(target, rel=0.5)

    def test_monotone_in_target(self):
        low = parametrized_churn(20, 1200.0, 1e-3, seed=1).churn_rate()
        high = parametrized_churn(20, 1200.0, 5e-2, seed=1).churn_rate()
        assert high > low

    def test_invalid_duty_cycle(self):
        with pytest.raises(ValidationError):
            parametrized_churn(10, 100.0, 0.01, duty_cycle=1.5)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(5, 15))
    def test_active_sets_subset_of_nodes(self, n):
        schedule = parametrized_churn(n, 300.0, 0.01, seed=n)
        for t in (0.0, 100.0, 299.0):
            assert schedule.active_at(t) <= set(range(n))
