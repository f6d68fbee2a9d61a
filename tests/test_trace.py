"""Tests for power traces: exact energy integration of step functions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ClockError
from repro.hardware import PowerTrace, SummedPowerTrace


class TestPowerTrace:
    def test_initial_level_holds(self):
        tr = PowerTrace(initial_watts=50.0)
        assert tr.power_at(0.0) == 50.0
        assert tr.power_at(100.0) == 50.0

    def test_energy_constant_power(self):
        tr = PowerTrace(initial_watts=100.0)
        assert tr.energy_between(0.0, 10.0) == pytest.approx(1000.0)

    def test_energy_before_zero_is_zero(self):
        tr = PowerTrace(initial_watts=100.0)
        assert tr.energy_until(-5.0) == 0.0

    def test_step_change(self):
        tr = PowerTrace(initial_watts=10.0)
        tr.set_power(5.0, 30.0)
        assert tr.power_at(4.999) == 10.0
        assert tr.power_at(5.0) == 30.0
        assert tr.energy_between(0.0, 10.0) == pytest.approx(10 * 5 + 30 * 5)

    def test_interval_straddling_breakpoint(self):
        tr = PowerTrace(initial_watts=10.0)
        tr.set_power(5.0, 30.0)
        assert tr.energy_between(4.0, 6.0) == pytest.approx(10 + 30)

    def test_same_power_is_noop(self):
        tr = PowerTrace(initial_watts=10.0)
        tr.set_power(5.0, 10.0)
        assert tr.num_breakpoints == 1

    def test_overwrite_at_same_time(self):
        tr = PowerTrace(initial_watts=10.0)
        tr.set_power(5.0, 30.0)
        tr.set_power(5.0, 40.0)
        assert tr.power_at(5.0) == 40.0
        assert tr.num_breakpoints == 2

    def test_overwrite_merging_with_previous(self):
        tr = PowerTrace(initial_watts=10.0)
        tr.set_power(5.0, 30.0)
        tr.set_power(5.0, 10.0)  # back to the previous level -> merged away
        assert tr.num_breakpoints == 1
        assert tr.power_at(10.0) == 10.0

    def test_backwards_time_rejected(self):
        tr = PowerTrace()
        tr.set_power(5.0, 30.0)
        with pytest.raises(ClockError):
            tr.set_power(4.0, 20.0)

    def test_negative_power_rejected(self):
        tr = PowerTrace()
        with pytest.raises(ValueError):
            tr.set_power(1.0, -5.0)

    @pytest.mark.parametrize("watts", [math.nan, math.inf])
    def test_non_finite_power_rejected(self, watts):
        tr = PowerTrace(initial_watts=10.0)
        with pytest.raises(ValueError):
            tr.set_power(1.0, watts)
        assert tr.num_breakpoints == 1
        assert tr.power_at(2.0) == 10.0

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        tr = PowerTrace(initial_watts=10.0)
        tr.set_power(1.0, 20.0)
        with pytest.raises(ClockError):
            tr.set_power(t, 30.0)
        assert tr.num_breakpoints == 2
        assert tr.energy_until(2.0) == 10.0 + 20.0

    def test_reversed_interval_rejected(self):
        tr = PowerTrace(initial_watts=1.0)
        with pytest.raises(ValueError):
            tr.energy_between(5.0, 4.0)

    def test_growth_beyond_initial_capacity(self):
        tr = PowerTrace()
        for i in range(1, 1000):
            tr.set_power(float(i), float(i % 7 + 1))
        assert tr.num_breakpoints > 256
        # Energy over [0, 999] equals the sum of unit-length segments.
        expected = sum((i % 7 + 1) for i in range(1, 999))
        assert tr.energy_between(1.0, 999.0) == pytest.approx(expected)

    def test_sample_vectorized_matches_scalar(self):
        tr = PowerTrace(initial_watts=5.0)
        tr.set_power(1.0, 10.0)
        tr.set_power(2.0, 20.0)
        times = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        sampled = tr.sample(times)
        expected = [tr.power_at(t) for t in times]
        assert np.allclose(sampled, expected)

    def test_breakpoints_returns_copies(self):
        tr = PowerTrace(initial_watts=5.0)
        tr.set_power(1.0, 10.0)
        times, watts = tr.breakpoints()
        times[0] = 99.0
        assert tr.power_at(0.0) == 5.0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=10.0),
                st.floats(min_value=0.0, max_value=500.0),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50)
    def test_energy_additivity(self, segments):
        """E[0,T] == E[0,t] + E[t,T] for any split point t."""
        tr = PowerTrace(initial_watts=25.0)
        t = 0.0
        for dt, watts in segments:
            t += dt
            tr.set_power(t, watts)
        total_t = t + 1.0
        mid = total_t * 0.37
        whole = tr.energy_between(0.0, total_t)
        parts = tr.energy_between(0.0, mid) + tr.energy_between(mid, total_t)
        assert whole == pytest.approx(parts, rel=1e-12, abs=1e-9)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=10.0),
                st.floats(min_value=0.0, max_value=500.0),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @example(segments=[(0.01, 0.0), (1.0, 0.0), (10.0, 0.0)])
    @settings(max_examples=50)
    def test_energy_matches_riemann_sum(self, segments):
        """Exact integration agrees with a midpoint Riemann sum to within
        the rule's error bound for a step function: a jump of size dW
        inside a cell moves that cell's midpoint sample by at most half a
        cell of dW."""
        tr = PowerTrace(initial_watts=10.0)
        t = 0.0
        level = 10.0
        total_jump = 0.0
        for dt, watts in segments:
            t += dt
            tr.set_power(t, watts)
            total_jump += abs(watts - level)
            level = watts
        total_t = t + 0.5
        n = 20001
        grid = np.linspace(0.0, total_t, n)
        mids = 0.5 * (grid[:-1] + grid[1:])
        cell = total_t / (n - 1)
        riemann = float(np.sum(tr.sample(mids)) * cell)
        exact = tr.energy_between(0.0, total_t)
        bound = 0.5 * cell * total_jump + 1e-9 * max(1.0, abs(riemann))
        assert abs(exact - riemann) <= bound


class TestSummedPowerTrace:
    def test_sums_components_and_constant(self):
        a = PowerTrace(initial_watts=10.0)
        b = PowerTrace(initial_watts=20.0)
        summed = SummedPowerTrace([a, b], constant_watts=5.0)
        assert summed.power_at(0.0) == 35.0
        assert summed.energy_between(0.0, 2.0) == pytest.approx(70.0)

    def test_tracks_component_changes(self):
        a = PowerTrace(initial_watts=0.0)
        summed = SummedPowerTrace([a], constant_watts=1.0)
        a.set_power(1.0, 9.0)
        assert summed.power_at(0.5) == 1.0
        assert summed.power_at(1.5) == 10.0

    def test_energy_until_zero(self):
        summed = SummedPowerTrace([PowerTrace(initial_watts=5.0)])
        assert summed.energy_until(0.0) == 0.0

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError):
            SummedPowerTrace([], constant_watts=-1.0)

    def test_reversed_interval_rejected(self):
        summed = SummedPowerTrace([PowerTrace()])
        with pytest.raises(ValueError):
            summed.energy_between(2.0, 1.0)

    def test_sample_vectorized(self):
        a = PowerTrace(initial_watts=2.0)
        a.set_power(1.0, 4.0)
        summed = SummedPowerTrace([a], constant_watts=1.0)
        out = summed.sample(np.array([0.5, 1.5]))
        assert np.allclose(out, [3.0, 5.0])


class TestSampler:
    """``sampler()`` is a scalar :meth:`sample` for a forward-moving reader."""

    def test_cursor_survives_merge_of_last_breakpoint(self):
        tr = PowerTrace(initial_watts=10.0)
        tr.set_power(1.0, 20.0)
        tr.set_power(2.0, 30.0)
        sample = tr.sampler()
        assert sample([2.5]) == [30.0]
        # Overwriting the last breakpoint back to the previous level merges
        # it away; the cursor sat on the dropped breakpoint.
        tr.set_power(2.0, 20.0)
        assert tr.num_breakpoints == 2
        assert sample([2.5, 3.0]) == [20.0, 20.0]

    def test_reader_moving_backwards_restarts(self):
        tr = PowerTrace(initial_watts=10.0)
        tr.set_power(1.0, 20.0)
        sample = tr.sampler()
        assert sample([1.5]) == [20.0]
        assert sample([0.5, 1.0]) == [10.0, 20.0]

    def test_one_level_windows_equal_sample(self):
        """Windows on one level (the shortcut), windows that end exactly on
        a breakpoint, and summed windows where only some members change."""
        a, b = PowerTrace(initial_watts=7.0), PowerTrace(initial_watts=3.0)
        a.set_power(1.0, 11.0)
        a.set_power(2.0, 13.0)
        b.set_power(1.5, 5.25)
        summed = SummedPowerTrace([a, b], constant_watts=12.5)
        readers = [(tr, tr.sampler()) for tr in (a, b, summed)]
        windows = [
            [0.1, 0.5, 0.9],  # every member on its first level
            [1.1, 1.2, 1.4],  # a on its second level, b still on its first
            [1.45, 1.5],  # ends on b's breakpoint: b changes, a does not
            [1.6, 1.9, 1.999],  # both on one level again
            [1.999, 2.0],  # ends on a's breakpoint
            [2.5, 7.0, 1e6],  # past the last breakpoints
            [0.2],  # before the cursor: the walk restarts
            [],
        ]
        for times in windows:
            for trace, sample in readers:
                want = trace.sample(np.array(times, dtype=np.float64)).tolist()
                got = sample(times)
                assert type(got) is list
                assert [w.hex() for w in got] == [w.hex() for w in want]

    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("set"),
                    st.integers(0, 1),
                    st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
                    st.floats(0.0, 500.0),
                ),
                st.tuples(
                    st.just("sample"),
                    st.lists(st.floats(0.0, 3.0), min_size=0, max_size=8),
                ),
            ),
            max_size=30,
        ),
        st.sampled_from([0.0, 12.5]),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_vectorized_sample(self, ops, constant):
        traces = [PowerTrace(initial_watts=7.0), PowerTrace(initial_watts=3.0)]
        summed = SummedPowerTrace(traces, constant_watts=constant)
        readers = [(tr, tr.sampler()) for tr in traces]
        readers.append((summed, summed.sampler()))
        last_bp, reader_t = 0.0, 0.0
        for op in ops:
            if op[0] == "set":
                _, member, dt, watts = op
                last_bp += dt
                traces[member].set_power(last_bp, watts)
                continue
            times = []
            for dt in op[1]:
                reader_t += dt
                times.append(reader_t)
            for trace, sample in readers:
                want = trace.sample(np.array(times, dtype=np.float64)).tolist()
                assert [w.hex() for w in sample(times)] == [w.hex() for w in want]
