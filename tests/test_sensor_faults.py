"""Failure-injection tests: frozen counters, dropouts, glitches, and the
health record the resilient degradation ladder fills in (detection and
mitigation are tested with the ladder, ``tests/test_resilient_pmt.py``)."""

import numpy as np
import pytest

from repro.errors import SensorError
from repro.hardware import PowerTrace
from repro.sensors import SampledEnergyCounter
from repro.sensors.faults import (
    DropoutFault,
    FrozenCounterFault,
    GlitchFault,
)
from repro.sensors.resilient import SensorHealth, diff_counters


@pytest.fixture
def counter():
    trace = PowerTrace(initial_watts=200.0)
    return SampledEnergyCounter(trace, refresh_period_s=0.1)


class TestFrozenCounter:
    def test_normal_before_freeze(self, counter):
        faulty = FrozenCounterFault(counter, freeze_at=10.0)
        assert faulty.read(5.0).joules == counter.read(5.0).joules

    def test_frozen_after(self, counter):
        faulty = FrozenCounterFault(counter, freeze_at=10.0)
        at_freeze = faulty.read(10.0)
        later = faulty.read(100.0)
        assert later.joules == at_freeze.joules
        assert later.timestamp == at_freeze.timestamp

    def test_region_across_freeze_reads_zero_energy(self, counter):
        """The dangerous failure mode: silently missing energy."""
        faulty = FrozenCounterFault(counter, freeze_at=10.0)
        start = faulty.read(10.0)
        end = faulty.read(20.0)
        assert end.joules - start.joules == 0.0

    def test_invalid_freeze_time(self, counter):
        with pytest.raises(SensorError):
            FrozenCounterFault(counter, freeze_at=-1.0)


class TestDropout:
    def test_reads_fail_in_window(self, counter):
        faulty = DropoutFault(counter, 5.0, 8.0)
        faulty.read(4.9)
        with pytest.raises(SensorError):
            faulty.read(6.0)
        faulty.read(8.0)

    def test_invalid_window(self, counter):
        with pytest.raises(SensorError):
            DropoutFault(counter, 5.0, 5.0)


class TestGlitch:
    def test_glitches_only_touch_power(self, counter):
        faulty = GlitchFault(counter, probability=1.0, magnitude_watts=9e9)
        reading = faulty.read(3.0)
        clean = counter.read(3.0)
        assert reading.watts == 9e9
        assert reading.joules == clean.joules

    def test_zero_probability_is_transparent(self, counter):
        faulty = GlitchFault(counter, probability=0.0)
        assert faulty.read(3.0) == counter.read(3.0)

    def test_deterministic_given_seed(self, counter):
        a = GlitchFault(counter, probability=0.3, seed=5)
        b = GlitchFault(counter, probability=0.3, seed=5)
        times = np.linspace(0, 10, 50)
        assert [a.read(t).watts for t in times] == [
            b.read(t).watts for t in times
        ]

    def test_invalid_probability(self, counter):
        with pytest.raises(SensorError):
            GlitchFault(counter, probability=1.5)


class TestSensorHealthRecord:
    def test_add_accumulates_counters_and_latch(self):
        a = SensorHealth(reads=2, retries=1)
        b = SensorHealth(reads=3, gap_seconds=1.5, degraded=True)
        a.add(b)
        assert a.reads == 5
        assert a.retries == 1
        assert a.gap_seconds == 1.5
        assert a.degraded
        assert a.status == "degraded"

    def test_diff_counters_drops_zero_deltas(self):
        names = SensorHealth.COUNTER_FIELDS
        before = SensorHealth(reads=10, retries=2).counters()
        after = SensorHealth(reads=14, retries=2, gap_seconds=0.5).counters()
        delta = diff_counters(names, tuple(after.values()), tuple(before.values()))
        assert delta == {"reads": 4, "gap_seconds": 0.5}
        assert diff_counters(("reads", "retries", "extra"), (3, 2), (1, 2)) == {
            "reads": 2
        }


class TestInjectFault:
    @pytest.fixture
    def cscs(self):
        from repro.config import CSCS_A100
        from repro.hardware import Node, VirtualClock
        from repro.sensors import NodeTelemetry

        clock = VirtualClock()
        node = Node("n0", clock, CSCS_A100.node_spec)
        return clock, NodeTelemetry(node, CSCS_A100, clock)

    @pytest.fixture
    def lumi(self):
        from repro.config import LUMI_G
        from repro.hardware import Node, VirtualClock
        from repro.sensors import NodeTelemetry

        clock = VirtualClock()
        node = Node("n0", clock, LUMI_G.node_spec)
        return clock, NodeTelemetry(node, LUMI_G, clock)

    def test_unknown_kind_rejected(self, cscs):
        from repro.sensors.inject import inject_fault

        _, tel = cscs
        with pytest.raises(SensorError):
            inject_fault(tel, "meltdown", "gpu0")

    def test_unknown_target_rejected(self, cscs):
        from repro.sensors.inject import inject_fault

        _, tel = cscs
        with pytest.raises(SensorError):
            inject_fault(tel, "freeze", "fpga0")

    def test_out_of_range_gpu_rejected(self, cscs):
        from repro.sensors.inject import inject_fault

        _, tel = cscs
        with pytest.raises(SensorError):
            inject_fault(tel, "freeze", "gpu9")

    def test_no_memory_sensor_off_cray(self, cscs):
        from repro.sensors.inject import inject_fault

        _, tel = cscs
        with pytest.raises(SensorError):
            inject_fault(tel, "freeze", "memory")

    def test_cpu_dropout_reaches_rapl_consumer(self, cscs):
        from repro.sensors.inject import inject_fault

        clock, tel = cscs
        wrapper = inject_fault(
            tel, "dropout", "cpu", outage_start=1.0, outage_end=2.0
        )
        assert isinstance(wrapper, DropoutFault)
        import repro.pmt as pmt

        meter = pmt.create("rapl", telemetry=tel)
        meter.read()
        clock.advance(1.5)
        with pytest.raises(SensorError):
            meter.read()

    def test_rocm_target_on_cray_platform(self, lumi):
        from repro.sensors.inject import inject_fault

        _, tel = lumi
        wrapper = inject_fault(tel, "glitch", "rocm0", probability=1.0)
        assert isinstance(wrapper, GlitchFault)

