"""Tests for the virtual simulation clock."""

import math

import pytest

from repro.errors import ClockError
from repro.hardware import VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_starts_at_given_time(self):
        assert VirtualClock(start=5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ClockError):
            VirtualClock(start=-1.0)

    def test_advance(self):
        clock = VirtualClock()
        assert clock.advance(2.5) == 2.5
        assert clock.now == 2.5

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(1.0)
        clock.advance(0.5)
        assert clock.now == 1.5

    def test_zero_advance_allowed(self):
        clock = VirtualClock()
        clock.advance(0.0)
        assert clock.now == 0.0

    def test_negative_advance_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ClockError):
            clock.advance(-0.1)

    def test_advance_to(self):
        clock = VirtualClock()
        clock.advance_to(7.0)
        assert clock.now == 7.0

    def test_advance_to_past_rejected(self):
        clock = VirtualClock(start=3.0)
        with pytest.raises(ClockError):
            clock.advance_to(2.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_advance_rejected(self, dt):
        clock = VirtualClock(start=3.0)
        with pytest.raises(ClockError, match="non-finite"):
            clock.advance(dt)
        assert clock.now == 3.0

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_advance_to_rejected(self, t):
        clock = VirtualClock(start=3.0)
        with pytest.raises(ClockError, match="non-finite"):
            clock.advance_to(t)
        assert clock.now == 3.0

    def test_listener_called_on_advance(self):
        clock = VirtualClock()
        seen = []
        clock.on_advance(seen.append)
        clock.advance(1.0)
        clock.advance(2.0)
        assert seen == [1.0, 3.0]

    def test_listener_not_called_on_zero_advance(self):
        clock = VirtualClock()
        seen = []
        clock.on_advance(seen.append)
        clock.advance(0.0)
        assert seen == []
