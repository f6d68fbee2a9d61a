"""Tests for the PMT measurement toolkit: state, base API, registry."""

import pytest

import repro.pmt as pmt
from repro.errors import BackendError, MeasurementError
from repro.hardware import VirtualClock
from repro.pmt import Measurement, PMT, State


def make_state(t, joules, watts, name="node"):
    return State(
        timestamp=t, measurements=(Measurement(name=name, joules=joules, watts=watts),)
    )


class TestState:
    def test_primary_is_first(self):
        s = State(
            timestamp=1.0,
            measurements=(
                Measurement("node", 100.0, 50.0),
                Measurement("cpu", 40.0, 20.0),
            ),
        )
        assert s.primary.name == "node"
        assert s.joules == 100.0
        assert s.watts == 50.0

    def test_lookup_by_name(self):
        s = State(
            timestamp=1.0,
            measurements=(
                Measurement("node", 100.0, 50.0),
                Measurement("cpu", 40.0, 20.0),
            ),
        )
        assert s.joules_of("cpu") == 40.0
        assert s.watts_of("cpu") == 20.0
        assert s.names() == ("node", "cpu")

    def test_unknown_name(self):
        s = make_state(0.0, 0.0, 0.0)
        with pytest.raises(MeasurementError):
            s.joules_of("gpu")

    def test_empty_state_rejected(self):
        with pytest.raises(MeasurementError):
            State(timestamp=0.0, measurements=())

    def test_duplicate_names_rejected(self):
        with pytest.raises(MeasurementError):
            State(
                timestamp=0.0,
                measurements=(
                    Measurement("x", 0.0, 0.0),
                    Measurement("x", 1.0, 1.0),
                ),
            )


class TestPmtArithmetic:
    def test_seconds(self):
        assert PMT.seconds(make_state(1.0, 0, 0), make_state(3.5, 0, 0)) == 2.5

    def test_seconds_reversed_rejected(self):
        with pytest.raises(MeasurementError):
            PMT.seconds(make_state(3.0, 0, 0), make_state(1.0, 0, 0))

    def test_joules(self):
        assert PMT.joules(make_state(0, 100, 0), make_state(1, 350, 0)) == 250

    def test_watts_is_average_power(self):
        start = make_state(0.0, 0.0, 0.0)
        end = make_state(5.0, 1000.0, 0.0)
        assert PMT.watts(start, end) == 200.0

    def test_watts_zero_interval(self):
        s = make_state(1.0, 100.0, 50.0)
        assert PMT.watts(s, s) == 0.0

    def test_named_counter_arithmetic(self):
        start = State(
            timestamp=0.0,
            measurements=(
                Measurement("node", 0.0, 0.0),
                Measurement("cpu", 10.0, 0.0),
            ),
        )
        end = State(
            timestamp=2.0,
            measurements=(
                Measurement("node", 100.0, 0.0),
                Measurement("cpu", 30.0, 0.0),
            ),
        )
        assert PMT.joules(start, end, "cpu") == 20.0
        assert PMT.watts(start, end, "cpu") == 10.0


class TestRegistry:
    def test_available_backends(self):
        names = pmt.available_backends()
        assert set(names) >= {"cray", "nvml", "rapl", "rocm", "dummy"}

    def test_unknown_backend(self):
        with pytest.raises(BackendError):
            pmt.create("powersensor3")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(BackendError):
            @pmt.register_backend("dummy")
            class Another(PMT):  # pragma: no cover - registration must fail
                def read_state(self):
                    raise NotImplementedError


class TestDummyBackend:
    def test_zero_measurements(self):
        meter = pmt.create("dummy")
        s = meter.read()
        assert s.joules == 0.0
        assert s.watts == 0.0
        assert meter.read_count == 1

    def test_start_stop_result(self):
        clock = VirtualClock()
        meter = pmt.create("dummy", clock=clock)
        meter.start()
        clock.advance(3.0)
        meter.stop()
        seconds, joules, watts = meter.result()
        assert seconds == 3.0
        assert joules == 0.0
        assert watts == 0.0

    def test_stop_without_start(self):
        meter = pmt.create("dummy")
        with pytest.raises(MeasurementError):
            meter.stop()

    def test_result_without_region(self):
        meter = pmt.create("dummy")
        with pytest.raises(MeasurementError):
            meter.result()

    @pytest.mark.parametrize("gap_s", [0.0, 2.0])
    def test_restart_forgets_previous_end(self, gap_s):
        # A new start() must not pair with the previous region's stop():
        # later it reads as "end precedes start", at the same instant as a
        # silent zero-length region.
        clock = VirtualClock()
        meter = pmt.create("dummy", clock=clock)
        meter.start()
        clock.advance(3.0)
        meter.stop()
        clock.advance(gap_s)
        meter.start()
        with pytest.raises(MeasurementError, match="no completed"):
            meter.result()
        clock.advance(1.5)
        meter.stop()
        assert meter.result() == (1.5, 0.0, 0.0)
