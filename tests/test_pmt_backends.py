"""Tests for the concrete PMT backends against simulated hardware."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.pmt as pmt
from repro.config import CSCS_A100, LUMI_G
from repro.errors import BackendError, SensorError
from repro.hardware import Node, VirtualClock
from repro.pmt import PMT, PmtSampler
from repro.pmt.backends.cray import CrayPMT
from repro.sensors import NodeTelemetry
from repro.sensors.inject import FAULT_KINDS, inject_fault
from repro.sensors.pm_counters import PM_COUNTERS_DIR
from tests.oracles.measurement import parse_pm_file


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def lumi(clock):
    node = Node("n0", clock, LUMI_G.node_spec)
    return node, NodeTelemetry(node, LUMI_G, clock)


@pytest.fixture
def cscs(clock):
    node = Node("n0", clock, CSCS_A100.node_spec)
    return node, NodeTelemetry(node, CSCS_A100, clock)


class TestCrayBackend:
    def test_measurement_names(self, lumi):
        node, tel = lumi
        meter = pmt.create("cray", telemetry=tel)
        s = meter.read()
        assert s.names() == (
            "node", "cpu", "memory",
            "accel0", "accel1", "accel2", "accel3",
        )

    def test_requires_cray_platform(self, cscs):
        _, tel = cscs
        with pytest.raises(BackendError):
            pmt.create("cray", telemetry=tel)

    def test_region_energy_tracks_ground_truth(self, clock, lumi):
        node, tel = lumi
        meter = pmt.create("cray", telemetry=tel)
        start = meter.read()
        for gpu in node.gpus:
            gpu.set_load(0.9, 0.6)
        clock.advance(20.0)
        node.all_idle()
        end = meter.read()
        truth = node.energy_between(0.0, 20.0)
        assert PMT.joules(start, end) == pytest.approx(truth, rel=0.02)

    def test_accel_counter_per_card(self, clock, lumi):
        node, tel = lumi
        meter = pmt.create("cray", telemetry=tel)
        start = meter.read()
        node.gpus[0].set_load(1.0, 1.0)  # one GCD of card 0
        clock.advance(10.0)
        node.all_idle()
        end = meter.read()
        card0 = PMT.joules(start, end, "accel0")
        card1 = PMT.joules(start, end, "accel1")
        truth0 = node.cards[0].energy_between(0.0, 10.0)
        assert card0 == pytest.approx(truth0, rel=0.02)
        assert card0 > card1

    def test_average_watts(self, clock, lumi):
        node, tel = lumi
        meter = pmt.create("cray", telemetry=tel)
        start = meter.read()
        clock.advance(10.0)
        end = meter.read()
        assert PMT.watts(start, end) == pytest.approx(node.idle_power(), rel=0.02)


class TestNvmlBackend:
    def test_one_device_per_meter(self, clock, cscs):
        node, tel = cscs
        meter = pmt.create("nvml", telemetry=tel, device_index=2)
        s = meter.read()
        assert s.names() == ("gpu2",)

    def test_bad_device_index(self, cscs):
        _, tel = cscs
        with pytest.raises(BackendError):
            pmt.create("nvml", telemetry=tel, device_index=7)

    def test_requires_nvml_platform(self, lumi):
        _, tel = lumi
        with pytest.raises(BackendError):
            pmt.create("nvml", telemetry=tel)

    def test_region_energy_tracks_card(self, clock, cscs):
        node, tel = cscs
        meter = pmt.create("nvml", telemetry=tel, device_index=0)
        start = meter.read()
        node.gpus[0].set_load(1.0, 0.8)
        clock.advance(30.0)
        node.gpus[0].set_idle()
        end = meter.read()
        truth = node.cards[0].energy_between(0.0, 30.0)
        assert PMT.joules(start, end) == pytest.approx(truth, rel=0.03)


class TestRaplBackend:
    def test_unwrapped_energy_across_wrap(self, clock, cscs):
        node, tel = cscs
        meter = pmt.create("rapl", telemetry=tel)
        node.cpu.set_load(1.0, 1.0)
        power = node.cpu.power_now()
        start = meter.read()
        # Cross the ~4295 J register boundary twice, reading in between
        # (the backend handles one wrap per read interval).
        for _ in range(4):
            clock.advance(4295.0 / power * 0.6)
            meter.read()
        end = meter.read()
        truth = node.cpu.energy_between(start.timestamp, end.timestamp)
        assert PMT.joules(start, end) == pytest.approx(truth, rel=0.01)

    def test_watts_from_deltas(self, clock, cscs):
        node, tel = cscs
        meter = pmt.create("rapl", telemetry=tel)
        meter.read()
        clock.advance(5.0)
        s = meter.read()
        assert s.watts == pytest.approx(node.cpu.power_now(), rel=0.02)

    def test_requires_rapl_platform(self, lumi):
        _, tel = lumi
        with pytest.raises(BackendError):
            pmt.create("rapl", telemetry=tel)


class TestRocmBackend:
    def test_polling_integration(self, clock, lumi):
        node, tel = lumi
        meter = pmt.create("rocm", telemetry=tel, device_index=0)
        start = meter.read()
        node.gpus[0].set_load(1.0, 1.0)
        node.gpus[1].set_load(1.0, 1.0)
        # Poll during the region so trapezoid integration sees the plateau.
        for _ in range(20):
            clock.advance(1.0)
            meter.read()
        node.all_idle()
        end = meter.read()
        truth = node.cards[0].energy_between(start.timestamp, end.timestamp)
        assert PMT.joules(start, end) == pytest.approx(truth, rel=0.05)

    def test_requires_rocm_platform(self, cscs):
        _, tel = cscs
        with pytest.raises(BackendError):
            pmt.create("rocm", telemetry=tel)


class TestSampler:
    def test_samples_at_interval(self, clock, lumi):
        node, tel = lumi
        meter = pmt.create("cray", telemetry=tel)
        sampler = PmtSampler(meter, interval_s=1.0)
        sampler.start()
        for _ in range(10):
            clock.advance(0.5)
        sampler.stop()
        # start sample + 5 boundary samples (t=1..5); stop coincides with
        # the t=5 boundary, so no duplicate final row is emitted.
        times = [row.timestamp for row in sampler.rows]
        assert times[0] == 0.0
        assert times[-1] == 5.0
        assert len(sampler.rows) == 6

    def test_coarse_advance_catches_up(self, clock, lumi):
        node, tel = lumi
        meter = pmt.create("cray", telemetry=tel)
        sampler = PmtSampler(meter, interval_s=1.0)
        sampler.start()
        clock.advance(4.2)  # crosses 4 boundaries in one advance
        sampler.stop()
        assert len(sampler.rows) == 6

    def test_dump_format(self, clock, lumi, tmp_path):
        node, tel = lumi
        meter = pmt.create("cray", telemetry=tel)
        sampler = PmtSampler(meter, interval_s=1.0)
        sampler.start()
        clock.advance(2.0)
        sampler.stop()
        path = tmp_path / "dump.txt"
        sampler.write(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("#")
        assert len(lines) == len(sampler.rows) + 1
        t, joules, watts = map(float, lines[-1].split())
        assert t == 2.0
        assert joules > 0

    def test_double_start_rejected(self, lumi):
        node, tel = lumi
        sampler = PmtSampler(pmt.create("cray", telemetry=tel))
        sampler.start()
        with pytest.raises(Exception):
            sampler.start()

    def test_stop_before_start_rejected(self, lumi):
        node, tel = lumi
        sampler = PmtSampler(pmt.create("cray", telemetry=tel))
        with pytest.raises(Exception):
            sampler.stop()


def _outcome(read):
    """A read's values as exact hex strings, or the error type it raised."""
    try:
        values = read()
    except SensorError:
        return "SensorError"
    return tuple(float(v).hex() for v in values)


class TestCrayTypedRead:
    """The typed counter read equals parsing the pm_counters text files."""

    @given(
        kind=st.sampled_from((None,) + FAULT_KINDS),
        target=st.sampled_from(
            ("node", "cpu", "memory", "gpu0", "gpu1", "gpu2", "gpu3")
        ),
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2.5),
                st.floats(min_value=0.0, max_value=1.0),
                st.booleans(),
            ),
            min_size=1,
            max_size=25,
        ),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_typed_read_equals_parsed_files(self, kind, target, steps, seed):
        clock = VirtualClock()
        node = Node("n0", clock, LUMI_G.node_spec)
        tel = NodeTelemetry(node, LUMI_G, clock, seed=seed)
        if kind is not None:
            inject_fault(
                tel, kind, target, freeze_at=4.0, outage_start=3.0,
                outage_end=8.0, probability=0.3, seed=seed,
            )
        pm = tel.pm_counters
        meter = CrayPMT(tel)
        for dt, load, typed_first in steps:
            clock.advance(dt)
            for gpu in node.gpus:
                gpu.set_load(load, load)
            node.cpu.set_load(1.0 - load, load)
            files = {}
            for stem in pm.counters:
                prefix = f"{PM_COUNTERS_DIR}/{stem}_" if stem else f"{PM_COUNTERS_DIR}/"

                def parsed():
                    watts, w_unit, _ = parse_pm_file(tel.sysfs.read(prefix + "power"))
                    joules, j_unit, _ = parse_pm_file(tel.sysfs.read(prefix + "energy"))
                    assert (w_unit, j_unit) == ("W", "J")
                    return watts, joules

                def typed():
                    return pm.read_file_values(stem, clock.now)

                if typed_first:
                    got, want = _outcome(typed), _outcome(parsed)
                else:
                    want, got = _outcome(parsed), _outcome(typed)
                assert got == want
                files[stem or "node"] = want
            state = _outcome(
                lambda: [
                    v for m in meter.read_state().measurements
                    for v in (m.watts, m.joules)
                ]
            )
            if state == "SensorError":
                assert "SensorError" in files.values()
            else:
                names = meter.measurement_names()
                assert state == tuple(v for name in names for v in files[name])
