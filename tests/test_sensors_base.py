"""Tests for the core sampling energy counter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SensorError
from repro.hardware import PowerTrace
from repro.hardware.trace import SummedPowerTrace
from repro.sensors import SampledEnergyCounter
from repro.sensors.base import NUMPY_MIN_TICKS, SensorReading


class VectorizedReferenceCounter:
    """Frozen copy of the vectorized tick catch-up the counter once used.

    One NumPy pass per catch-up: ``arange`` the new tick times, sample the
    trace, add noise, clip, round, and append ``prev_cum + cumsum(...)``.
    :class:`SampledEnergyCounter` must serve bit-identical readings for
    any read sequence, so its catch-ups must happen at the same reads, up
    to the same tick, with the same per-chunk association.
    """

    def __init__(
        self,
        trace,
        refresh_period_s,
        watts_quantum=1.0,
        energy_quantum=1.0,
        noise_sigma_watts=0.0,
        wrap_joules=None,
        seed=0,
        initial_joules=0.0,
    ):
        self.initial_joules = float(initial_joules)
        self._trace = trace
        self.refresh_period_s = float(refresh_period_s)
        self.watts_quantum = float(watts_quantum)
        self.energy_quantum = float(energy_quantum)
        self.noise_sigma_watts = float(noise_sigma_watts)
        self.wrap_joules = wrap_joules
        self._rng = np.random.default_rng(seed)
        self._tick_watts = np.zeros(0, dtype=np.float64)
        self._cum_joules = np.zeros(0, dtype=np.float64)

    def _ensure_ticks(self, upto_tick):
        have = len(self._tick_watts)
        if upto_tick < have:
            return
        new_ticks = np.arange(have, upto_tick + 1, dtype=np.float64)
        times = new_ticks * self.refresh_period_s
        watts = np.asarray(self._trace.sample(times), dtype=np.float64)
        if self.noise_sigma_watts > 0:
            watts = watts + self._rng.normal(
                0.0, self.noise_sigma_watts, size=watts.shape
            )
            np.clip(watts, 0.0, None, out=watts)
        watts = np.round(watts / self.watts_quantum) * self.watts_quantum
        prev_cum = self._cum_joules[-1] if have else 0.0
        prev_watt = self._tick_watts[-1] if have else 0.0
        increments = np.empty(len(watts))
        increments[0] = prev_watt * self.refresh_period_s if have else 0.0
        increments[1:] = watts[:-1] * self.refresh_period_s
        cum = prev_cum + np.cumsum(increments)
        self._tick_watts = np.concatenate([self._tick_watts, watts])
        self._cum_joules = np.concatenate([self._cum_joules, cum])

    def tick_index(self, t):
        return int(math.floor(t / self.refresh_period_s + 1e-9))

    def read(self, t):
        k = self.tick_index(t)
        self._ensure_ticks(k)
        joules = self.initial_joules + self._cum_joules[k]
        joules = math.floor(joules / self.energy_quantum) * self.energy_quantum
        if self.wrap_joules is not None:
            joules = joules % self.wrap_joules
        return SensorReading(
            timestamp=k * self.refresh_period_s,
            watts=float(self._tick_watts[k]),
            joules=float(joules),
        )

    def read_exact(self, t):
        k = self.tick_index(t)
        self._ensure_ticks(k)
        joules = self.initial_joules + self._cum_joules[k]
        if self.wrap_joules is not None:
            joules = joules % self.wrap_joules
        return SensorReading(
            timestamp=k * self.refresh_period_s,
            watts=float(self._tick_watts[k]),
            joules=float(joules),
        )


class ScalarReferenceCounter(VectorizedReferenceCounter):
    """Frozen copy of the scalar tick catch-up: one Python loop per chunk.

    The trace is sampled through its forward-moving ``sampler()``, each
    new power level is quantized with ``round``, and the running sum
    carried from the previous chunk's last tick is added to tick by tick.
    :class:`SampledEnergyCounter` takes NumPy for long catch-ups; both
    must serve the same bits as this loop.
    """

    def __init__(self, trace, refresh_period_s, **kwargs):
        super().__init__(trace, refresh_period_s, **kwargs)
        self._sample = trace.sampler()

    def _ensure_ticks(self, upto_tick):
        have = len(self._tick_watts)
        if upto_tick < have:
            return
        period = self.refresh_period_s
        quantum = self.watts_quantum
        watts = self._sample([k * period for k in range(have, upto_tick + 1)])
        if self.noise_sigma_watts > 0:
            noise = self._rng.normal(0.0, self.noise_sigma_watts, size=len(watts))
            watts = [w + e for w, e in zip(watts, noise.tolist())]
            watts = [w if w > 0.0 else 0.0 for w in watts]
        if have:
            prev_cum = float(self._cum_joules[-1])
            running = float(self._tick_watts[-1]) * period
        else:
            prev_cum = running = 0.0
        quantized, cum = [], []
        raw = level = None
        for w in watts:
            cum.append(prev_cum + running)
            if w != raw:
                raw, level = w, round(w / quantum) * quantum
            quantized.append(level)
            running += level * period
        self._tick_watts = np.concatenate([self._tick_watts, quantized])
        self._cum_joules = np.concatenate([self._cum_joules, cum])


def _bits(reading):
    return tuple(
        float(v).hex() for v in (reading.timestamp, reading.watts, reading.joules)
    )


def make_counter(trace=None, **kwargs):
    if trace is None:
        trace = PowerTrace(initial_watts=100.0)
    params = dict(refresh_period_s=0.1, watts_quantum=1.0, energy_quantum=1.0)
    params.update(kwargs)
    return SampledEnergyCounter(trace, **params)


class TestSampledEnergyCounter:
    def test_read_at_zero(self):
        counter = make_counter()
        reading = counter.read(0.0)
        assert reading.timestamp == 0.0
        assert reading.watts == 100.0
        assert reading.joules == 0.0

    def test_constant_power_energy(self):
        counter = make_counter()
        reading = counter.read(10.0)
        assert reading.joules == pytest.approx(100.0 * 10.0)
        assert reading.watts == 100.0

    def test_reading_reflects_last_completed_tick(self):
        counter = make_counter()
        reading = counter.read(0.57)
        assert reading.timestamp == pytest.approx(0.5)
        # Only 5 full ticks integrated.
        assert reading.joules == pytest.approx(100.0 * 0.5)

    def test_tick_boundary_float_fuzz(self):
        counter = make_counter()
        # 0.3 is not exactly representable; 3 * 0.1 may land just below it.
        assert counter.tick_index(0.1 + 0.1 + 0.1) == 3

    def test_quantization_of_watts(self):
        trace = PowerTrace(initial_watts=123.7)
        counter = make_counter(trace)
        assert counter.read(0.0).watts == 124.0

    def test_quantization_of_joules_floor(self):
        trace = PowerTrace(initial_watts=9.4)
        counter = make_counter(trace)
        # 9 W quantized * 1.0 s = 9.0 J per 10 ticks... floor applied on read
        reading = counter.read(0.35)  # 3 ticks of 9 W * 0.1 s = 2.7 -> floor 2
        assert reading.joules == 2.0

    def test_step_change_visible_after_tick(self):
        trace = PowerTrace(initial_watts=50.0)
        trace.set_power(1.0, 250.0)
        counter = make_counter(trace)
        assert counter.read(0.95).watts == 50.0
        assert counter.read(1.0).watts == 250.0

    def test_energy_approximates_ground_truth(self):
        trace = PowerTrace(initial_watts=60.0)
        t = 0.0
        rng = np.random.default_rng(42)
        for _ in range(50):
            t += float(rng.uniform(0.3, 2.0))
            trace.set_power(t, float(rng.uniform(50.0, 400.0)))
        counter = make_counter(trace)
        horizon = t + 1.0
        measured = counter.read(horizon).joules
        truth = counter.true_energy(horizon)
        assert measured == pytest.approx(truth, rel=0.05)

    def test_out_of_order_reads_consistent(self):
        """Two ranks share a card sensor and read it at different times."""
        trace = PowerTrace(initial_watts=100.0)
        counter = make_counter(trace)
        late = counter.read(5.0)
        early = counter.read(2.0)
        again = counter.read(5.0)
        assert early.joules == pytest.approx(200.0)
        assert late.joules == again.joules == pytest.approx(500.0)

    def test_monotone_energy(self):
        trace = PowerTrace(initial_watts=75.0)
        counter = make_counter(trace)
        values = [counter.read(t).joules for t in np.linspace(0, 20, 57)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_wraparound(self):
        counter = make_counter(wrap_joules=500.0)
        # 100 W for 7 s = 700 J -> wraps to 200 J.
        assert counter.read(7.0).joules == pytest.approx(200.0)

    def test_noise_is_deterministic(self):
        trace = PowerTrace(initial_watts=200.0)
        c1 = make_counter(trace, noise_sigma_watts=5.0, seed=7)
        c2 = make_counter(trace, noise_sigma_watts=5.0, seed=7)
        assert c1.read(3.0).joules == c2.read(3.0).joules

    def test_noise_changes_with_seed(self):
        trace = PowerTrace(initial_watts=200.0)
        c1 = make_counter(trace, noise_sigma_watts=5.0, seed=7, watts_quantum=1e-6)
        c2 = make_counter(trace, noise_sigma_watts=5.0, seed=8, watts_quantum=1e-6)
        assert c1.read(3.0).joules != c2.read(3.0).joules

    def test_noise_never_negative_power(self):
        trace = PowerTrace(initial_watts=0.5)
        counter = make_counter(trace, noise_sigma_watts=50.0, watts_quantum=1e-6)
        values = [counter.read(t).watts for t in np.arange(0, 5, 0.1)]
        assert min(values) >= 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(SensorError):
            make_counter().read(-1.0)

    def test_invalid_parameters_rejected(self):
        trace = PowerTrace()
        with pytest.raises(SensorError):
            SampledEnergyCounter(trace, refresh_period_s=0.0)
        with pytest.raises(SensorError):
            SampledEnergyCounter(trace, refresh_period_s=0.1, watts_quantum=0.0)
        with pytest.raises(SensorError):
            SampledEnergyCounter(trace, refresh_period_s=0.1, noise_sigma_watts=-1.0)
        with pytest.raises(SensorError):
            SampledEnergyCounter(trace, refresh_period_s=0.1, wrap_joules=0.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.05, max_value=3.0),
                st.floats(min_value=0.0, max_value=500.0),
            ),
            min_size=1,
            max_size=15,
        ),
        st.floats(min_value=0.5, max_value=30.0),
    )
    @settings(max_examples=40)
    def test_measured_energy_close_to_truth_property(self, segments, horizon):
        """Sampled integration error is bounded by quantization + cadence."""
        trace = PowerTrace(initial_watts=80.0)
        t = 0.0
        for dt, watts in segments:
            t += dt
            trace.set_power(t, watts)
        counter = SampledEnergyCounter(
            trace, refresh_period_s=0.01, watts_quantum=0.001, energy_quantum=1e-6
        )
        measured = counter.read(horizon).joules
        truth = counter.true_energy(horizon)
        # Left-rectangle error per breakpoint <= period * |power jump|.
        bound = 0.01 * (len(segments) + 1) * 500.0 + 0.01 * 500.0 + 1e-3
        assert abs(measured - truth) <= bound


_power = st.floats(min_value=0.0, max_value=400.0)

#: One step of a live run: append a breakpoint to one member trace
#: (``dt`` after the previous one), or read at ``x`` refresh periods.
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("set"),
            st.integers(0, 2),
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=4.0)),
            _power,
        ),
        st.tuples(
            st.just("read"),
            st.one_of(
                st.integers(0, 400).map(float),
                st.floats(min_value=0.0, max_value=400.0),
            ),
            st.booleans(),
        ),
    ),
    min_size=1,
    max_size=40,
)


class TestCatchUpMatchesVectorizedReference:
    """The counter's catch-ups, short (scalar) and long (NumPy), are bit
    for bit those of both frozen references."""

    @given(
        summed=st.booleans(),
        members=st.integers(1, 3),
        initial=st.lists(_power, min_size=3, max_size=3),
        constant=st.sampled_from([0.0, 37.5]),
        period=st.sampled_from([0.1, 0.02, 1.0, 0.001]),
        watts_quantum=st.sampled_from([1.0, 1e-3]),
        energy_quantum=st.sampled_from([1.0, 1e-3, 15.3e-6]),
        noise=st.sampled_from([0.0, 5.0]),
        wrap=st.sampled_from([None, 97.0, 262143.328]),
        initial_joules=st.sampled_from([0.0, 1234.5]),
        seed=st.integers(0, 2**16),
        ordered=st.booleans(),
        ops=_ops,
    )
    @settings(max_examples=150, deadline=None)
    def test_reads_bitwise_equal(
        self,
        summed,
        members,
        initial,
        constant,
        period,
        watts_quantum,
        energy_quantum,
        noise,
        wrap,
        initial_joules,
        seed,
        ordered,
        ops,
    ):
        traces = [PowerTrace(initial_watts=w) for w in initial[:members]]
        trace = SummedPowerTrace(traces, constant) if summed else traces[0]
        params = dict(
            refresh_period_s=period,
            watts_quantum=watts_quantum,
            energy_quantum=energy_quantum,
            noise_sigma_watts=noise,
            wrap_joules=wrap,
            seed=seed,
            initial_joules=initial_joules,
        )
        counter = SampledEnergyCounter(trace, **params)
        references = [
            VectorizedReferenceCounter(trace, **params),
            ScalarReferenceCounter(trace, **params),
        ]
        if ordered:
            # Non-decreasing reads, breakpoints interleaved as in a run.
            reads = sorted(op[1] for op in ops if op[0] == "read")
            it = iter(reads)
            ops = [
                ("read", next(it), op[2]) if op[0] == "read" else op for op in ops
            ]
        last_bp = 0.0
        for op in ops:
            if op[0] == "set":
                _, member, dt, watts = op
                last_bp += dt
                traces[member % members].set_power(last_bp, watts)
                continue
            _, x, exact = op
            t = x * period
            method = "read_exact" if exact else "read"
            got = _bits(getattr(counter, method)(t))
            for reference in references:
                assert got == _bits(getattr(reference, method)(t))

    @pytest.mark.parametrize(
        "ticks",
        [NUMPY_MIN_TICKS - 1, NUMPY_MIN_TICKS, NUMPY_MIN_TICKS + 1, 7341],
    )
    @pytest.mark.parametrize("noise", [0.0, 3.0])
    @pytest.mark.parametrize("summed", [False, True])
    @pytest.mark.parametrize("wrap", [None, 97.0])
    def test_catch_up_at_the_threshold_and_the_longest(
        self, ticks, noise, summed, wrap
    ):
        """One catch-up of exactly ``ticks`` ticks after a short one, over
        levels that change inside the chunk; then cached reads inside it."""
        period = 0.01
        traces = [PowerTrace(initial_watts=w) for w in (112.4, 57.5, 301.25)]
        for i, tr in enumerate(traces):
            for j in range(1, 9):
                t = (i + 1) * j * ticks * period / 27.0
                tr.set_power(t, 40.0 + ((i + 1) * 37.3 * j) % 250.0)
        trace = SummedPowerTrace(traces, 37.5) if summed else traces[0]
        params = dict(
            refresh_period_s=period,
            watts_quantum=1.0,
            energy_quantum=1e-3,
            noise_sigma_watts=noise,
            wrap_joules=wrap,
            seed=7,
            initial_joules=1234.5,
        )
        counters = [
            SampledEnergyCounter(trace, **params),
            VectorizedReferenceCounter(trace, **params),
            ScalarReferenceCounter(trace, **params),
        ]
        first = 5
        reads = [first, first + ticks, first + 1, first + ticks // 2, first + ticks]
        for k in reads:
            t = k * period
            got = {_bits(c.read(t)) for c in counters}
            got_exact = {_bits(c.read_exact(t)) for c in counters}
            assert len(got) == len(got_exact) == 1
