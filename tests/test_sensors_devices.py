"""Tests for the concrete sensor families and node telemetry assembly."""

import pytest

from repro.config import CSCS_A100, LUMI_G, MINIHPC
from repro.errors import SensorError
from repro.hardware import Node, VirtualClock
from repro.sensors import (
    IpmiNode,
    NodeTelemetry,
    NvmlGpu,
    PmCounters,
    RaplPackage,
    RocmCard,
    VirtualSysfs,
)
from repro.sensors.pm_counters import PM_COUNTERS_DIR
from repro.sensors.rapl import RAPL_MAX_ENERGY_RANGE_J
from tests.oracles.measurement import parse_pm_file


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def lumi_node(clock):
    return Node("n0", clock, LUMI_G.node_spec)


@pytest.fixture
def cscs_node(clock):
    return Node("n0", clock, CSCS_A100.node_spec)


class TestVirtualSysfs:
    def test_register_and_read(self, clock):
        fs = VirtualSysfs(clock)
        fs.register("/sys/test", lambda t: f"value at {t}")
        clock.advance(2.0)
        assert fs.read("/sys/test") == "value at 2.0"

    def test_missing_path(self, clock):
        fs = VirtualSysfs(clock)
        with pytest.raises(SensorError):
            fs.read("/nope")

    def test_duplicate_registration_rejected(self, clock):
        fs = VirtualSysfs(clock)
        fs.register("/sys/test", lambda t: "x")
        with pytest.raises(SensorError):
            fs.register("/sys/test", lambda t: "y")

    def test_exists_and_listdir(self, clock):
        fs = VirtualSysfs(clock)
        fs.register("/sys/a/one", lambda t: "1")
        fs.register("/sys/a/two", lambda t: "2")
        fs.register("/sys/b/other", lambda t: "3")
        assert fs.exists("/sys/a/one")
        assert fs.listdir("/sys/a") == ["/sys/a/one", "/sys/a/two"]


class TestPmCounters:
    def test_file_set_lumi(self, clock, lumi_node):
        fs = VirtualSysfs(clock)
        PmCounters(lumi_node, fs, include_memory=True)
        for stem in ("power", "energy", "cpu_power", "cpu_energy",
                     "memory_power", "memory_energy"):
            assert fs.exists(f"{PM_COUNTERS_DIR}/{stem}")
        # 4 MI250X cards -> accel0..accel3 (not accel0..accel7).
        assert fs.exists(f"{PM_COUNTERS_DIR}/accel3_power")
        assert not fs.exists(f"{PM_COUNTERS_DIR}/accel4_power")

    def test_no_memory_files_when_absent(self, clock, cscs_node):
        fs = VirtualSysfs(clock)
        pm = PmCounters(cscs_node, fs, include_memory=False)
        assert not fs.exists(f"{PM_COUNTERS_DIR}/memory_power")
        with pytest.raises(SensorError):
            pm.read_memory(0.0)

    def test_file_format(self, clock, lumi_node):
        fs = VirtualSysfs(clock)
        PmCounters(lumi_node, fs)
        clock.advance(1.0)
        value, unit, ts = parse_pm_file(fs.read(f"{PM_COUNTERS_DIR}/power"))
        assert unit == "W"
        assert value == pytest.approx(lumi_node.idle_power(), abs=2.0)
        assert ts == pytest.approx(1.0)

    def test_energy_accumulates(self, clock, lumi_node):
        fs = VirtualSysfs(clock)
        pm = PmCounters(lumi_node, fs)
        base = pm.read_node(0.0).joules
        clock.advance(10.0)
        delta = pm.read_node(10.0).joules - base
        assert delta == pytest.approx(lumi_node.idle_power() * 10.0, rel=0.02)

    def test_counters_start_at_nonzero_base(self, clock, lumi_node):
        """pm_counters accumulate since boot: never assume a zero base."""
        fs = VirtualSysfs(clock)
        pm = PmCounters(lumi_node, fs, seed=3)
        assert pm.read_node(0.0).joules > 0

    def test_accel_counter_covers_whole_card(self, clock, lumi_node):
        """One accel file covers both GCDs of an MI250X."""
        fs = VirtualSysfs(clock)
        pm = PmCounters(lumi_node, fs)
        lumi_node.gpus[0].set_load(1.0, 1.0)  # only GCD 0 of card 0 busy
        clock.advance(5.0)
        busy = pm.read_accel(0, clock.now).watts
        idle = pm.read_accel(1, clock.now).watts
        both_idle = 2 * lumi_node.gpus[2].power_now() + 16.0
        assert idle == pytest.approx(both_idle, abs=2.0)
        assert busy > idle

    def test_bad_accel_index(self, clock, lumi_node):
        fs = VirtualSysfs(clock)
        pm = PmCounters(lumi_node, fs)
        with pytest.raises(SensorError):
            pm.read_accel(9, 0.0)

    def test_parse_rejects_garbage(self):
        with pytest.raises(SensorError):
            parse_pm_file("not a pm file")


class TestRapl:
    def test_energy_uj_file(self, clock, cscs_node):
        fs = VirtualSysfs(clock)
        rapl = RaplPackage(cscs_node.cpu, fs)
        base = int(fs.read("/sys/class/powercap/intel-rapl:0/energy_uj"))
        clock.advance(2.0)
        uj = int(fs.read("/sys/class/powercap/intel-rapl:0/energy_uj"))
        expected = cscs_node.cpu.power_now() * 2.0 * 1e6
        assert RaplPackage.unwrap(base, uj) == pytest.approx(expected, rel=0.02)

    def test_max_range_file(self, clock, cscs_node):
        fs = VirtualSysfs(clock)
        RaplPackage(cscs_node.cpu, fs)
        max_uj = int(fs.read("/sys/class/powercap/intel-rapl:0/max_energy_range_uj"))
        assert max_uj == int(RAPL_MAX_ENERGY_RANGE_J * 1e6)

    def test_wraparound_occurs(self, clock, cscs_node):
        fs = VirtualSysfs(clock)
        rapl = RaplPackage(cscs_node.cpu, fs)
        cscs_node.cpu.set_load(1.0, 1.0)
        power = cscs_node.cpu.power_now()
        wrap_time = RAPL_MAX_ENERGY_RANGE_J / power
        clock.advance(wrap_time * 1.5)
        uj = rapl.energy_uj(clock.now)
        true_uj = power * clock.now * 1e6
        assert uj < true_uj  # wrapped at least once

    def test_unwrap(self):
        max_uj = int(RAPL_MAX_ENERGY_RANGE_J * 1e6)
        assert RaplPackage.unwrap(100, 300) == 200
        assert RaplPackage.unwrap(max_uj - 50, 150) == 200

    def test_unwrap_roundtrip_through_wrap(self, clock, cscs_node):
        fs = VirtualSysfs(clock)
        rapl = RaplPackage(cscs_node.cpu, fs)
        cscs_node.cpu.set_load(1.0, 1.0)
        power = cscs_node.cpu.power_now()
        t0 = RAPL_MAX_ENERGY_RANGE_J / power * 0.9
        clock.advance(t0)
        before = rapl.energy_uj(clock.now)
        clock.advance(t0 * 0.3)
        after = rapl.energy_uj(clock.now)
        delta_j = RaplPackage.unwrap(before, after) * 1e-6
        assert delta_j == pytest.approx(power * t0 * 0.3, rel=0.02)


class TestNvml:
    def test_power_usage_near_truth(self, clock, cscs_node):
        nvml = NvmlGpu(cscs_node.cards[0], 0)
        clock.advance(1.0)
        mw = nvml.power_usage_mw(clock.now)
        truth_mw = cscs_node.cards[0].power_at(clock.now) * 1e3
        assert mw == pytest.approx(truth_mw, rel=0.25)  # noisy estimate

    def test_energy_counter_monotone_and_accurate(self, clock, cscs_node):
        nvml = NvmlGpu(cscs_node.cards[0], 0)
        cscs_node.gpus[0].set_load(1.0, 1.0)
        clock.advance(30.0)
        mj = nvml.total_energy_consumption_mj(clock.now)
        truth_mj = cscs_node.cards[0].energy_between(0, clock.now) * 1e3
        # Noise averages out over 600 ticks.
        assert mj == pytest.approx(truth_mj, rel=0.02)

    def test_two_cards_independent_noise(self, clock, cscs_node):
        a = NvmlGpu(cscs_node.cards[0], 0)
        b = NvmlGpu(cscs_node.cards[1], 1)
        clock.advance(1.0)
        assert a.power_usage_mw(clock.now) != b.power_usage_mw(clock.now)


class TestRocm:
    def test_hwmon_file(self, clock, lumi_node):
        fs = VirtualSysfs(clock)
        rocm = RocmCard(lumi_node.cards[0], 0, fs)
        clock.advance(1.0)
        uw = int(fs.read(rocm.hwmon_path))
        truth_uw = lumi_node.cards[0].power_at(clock.now) * 1e6
        assert uw == pytest.approx(truth_uw, rel=0.1)


class TestIpmi:
    def test_slow_cadence(self, clock, cscs_node):
        ipmi = IpmiNode(cscs_node)
        clock.advance(0.5)
        assert ipmi.read(clock.now).timestamp == 0.0
        clock.advance(0.6)
        assert ipmi.read(clock.now).timestamp == 1.0


class TestNodeTelemetry:
    def test_lumi_gets_pm_counters(self, clock, lumi_node):
        tel = NodeTelemetry(lumi_node, LUMI_G, clock)
        assert tel.pm_counters is not None
        assert tel.nvml == []
        assert tel.rapl is None
        assert len(tel.rocm) == 4
        assert tel.slurm_plugin_name == "pm_counters"

    def test_cscs_gets_nvml_rapl_ipmi(self, clock, cscs_node):
        tel = NodeTelemetry(cscs_node, CSCS_A100, clock)
        assert tel.pm_counters is None
        assert len(tel.nvml) == 4
        assert tel.rapl is not None
        assert tel.ipmi is not None
        assert tel.slurm_plugin_name == "ipmi"

    def test_minihpc_card_count(self, clock):
        node = Node("n0", clock, MINIHPC.node_spec)
        tel = NodeTelemetry(node, MINIHPC, clock)
        assert len(tel.nvml) == 2

    def test_slurm_energy_reading(self, clock, lumi_node):
        tel = NodeTelemetry(lumi_node, LUMI_G, clock)
        base = tel.slurm_energy_reading(0.0).joules
        clock.advance(5.0)
        delta = tel.slurm_energy_reading(clock.now).joules - base
        assert delta == pytest.approx(lumi_node.idle_power() * 5.0, rel=0.05)
