"""Tests for the simulation clock."""

import pytest

from repro.util.simclock import SimClock


class TestSimClock:
    def test_initial_state(self):
        clock = SimClock(epoch_length=60.0)
        assert clock.now == 0.0
        assert clock.epoch == 0

    def test_advance(self):
        clock = SimClock(epoch_length=60.0)
        clock.advance(30.0)
        assert clock.now == 30.0
        assert clock.epoch == 0
        clock.advance(40.0)
        assert clock.epoch == 1

    def test_advance_to(self):
        clock = SimClock(epoch_length=10.0)
        clock.advance_to(25.0)
        assert clock.epoch == 2

    def test_advance_to_backwards_rejected(self):
        clock = SimClock()
        clock.advance(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)

    def test_negative_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(Exception):
            clock.advance(-1.0)

    def test_reset(self):
        clock = SimClock()
        clock.advance(100.0)
        clock.reset()
        assert clock.now == 0.0

    def test_invalid_epoch_length(self):
        with pytest.raises(Exception):
            SimClock(epoch_length=0.0)
