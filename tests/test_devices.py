"""Tests for device models, DVFS, and node/cluster assembly."""

import pytest

from repro.config import (
    A100_PCIE_40GB,
    A100_SXM4_80GB,
    CSCS_A100,
    LUMI_G,
    MI250X_GCD,
    MINIHPC,
)
from repro.errors import DvfsError, HardwareError
from repro.hardware import (
    Cluster,
    FrequencyDomain,
    GpuCard,
    GpuDevice,
    NetworkModel,
    Node,
    VirtualClock,
)
from repro.units import mhz


@pytest.fixture
def clock():
    return VirtualClock()


class TestFrequencyDomain:
    def test_starts_at_nominal(self):
        dom = FrequencyDomain((mhz(1000), mhz(1410)), mhz(1410))
        assert dom.current_hz == mhz(1410)
        assert dom.ratio == 1.0

    def test_set_supported_frequency(self):
        dom = FrequencyDomain((mhz(1000), mhz(1410)), mhz(1410))
        dom.set_frequency(mhz(1000))
        assert dom.current_hz == mhz(1000)
        assert dom.ratio == pytest.approx(1000 / 1410)

    def test_unsupported_frequency_rejected(self):
        dom = FrequencyDomain((mhz(1000), mhz(1410)), mhz(1410))
        with pytest.raises(DvfsError):
            dom.set_frequency(mhz(1234))

    def test_non_user_controllable_blocks_unprivileged(self):
        dom = FrequencyDomain(
            (mhz(1000), mhz(1410)), mhz(1410), user_controllable=False
        )
        with pytest.raises(DvfsError):
            dom.set_frequency(mhz(1000))
        dom.set_frequency(mhz(1000), privileged=True)
        assert dom.current_hz == mhz(1000)

    def test_nominal_must_be_supported(self):
        with pytest.raises(DvfsError):
            FrequencyDomain((mhz(1000),), mhz(1410))

    def test_reset(self):
        dom = FrequencyDomain((mhz(1000), mhz(1410)), mhz(1410))
        dom.set_frequency(mhz(1000))
        dom.reset()
        assert dom.current_hz == mhz(1410)

    def test_empty_supported_rejected(self):
        with pytest.raises(DvfsError):
            FrequencyDomain((), mhz(1410))


class TestGpuDevice:
    def test_idle_power_at_creation(self, clock):
        gpu = GpuDevice("g0", clock, A100_SXM4_80GB)
        assert gpu.power_now() == pytest.approx(
            A100_SXM4_80GB.power_model.idle_watts_nominal
        )

    def test_load_raises_power(self, clock):
        gpu = GpuDevice("g0", clock, A100_SXM4_80GB)
        idle = gpu.power_now()
        gpu.set_load(0.9, 0.5)
        assert gpu.power_now() > idle

    def test_energy_integrates_phases(self, clock):
        gpu = GpuDevice("g0", clock, A100_SXM4_80GB)
        idle = gpu.power_now()
        clock.advance(10.0)
        gpu.set_load(1.0, 1.0)
        busy = gpu.power_now()
        clock.advance(5.0)
        gpu.set_idle()
        expected = idle * 10.0 + busy * 5.0
        assert gpu.energy_between(0.0, 15.0) == pytest.approx(expected)

    def test_frequency_change_reduces_busy_power(self, clock):
        gpu = GpuDevice("g0", clock, A100_PCIE_40GB)
        gpu.set_load(1.0, 0.5)
        at_nominal = gpu.power_now()
        gpu.set_frequency(mhz(1005))
        assert gpu.power_now() < at_nominal

    def test_peak_flops_scales_with_frequency(self, clock):
        gpu = GpuDevice("g0", clock, A100_PCIE_40GB)
        nominal = gpu.peak_flops_now()
        gpu.set_frequency(mhz(1005))
        assert gpu.peak_flops_now() == pytest.approx(nominal * 1005 / 1410)

    def test_invalid_utilization_rejected(self, clock):
        gpu = GpuDevice("g0", clock, A100_SXM4_80GB)
        with pytest.raises(HardwareError):
            gpu.set_load(1.2, 0.0)

    def test_unchanged_load_adds_no_breakpoint(self, clock):
        gpu = GpuDevice("g0", clock, A100_SXM4_80GB)
        gpu.set_load(0.7, 0.3)
        before = gpu.trace.breakpoints()
        clock.advance(1.0)
        gpu.set_load(0.7, 0.3)
        after = gpu.trace.breakpoints()
        assert [a.tolist() for a in after] == [b.tolist() for b in before]

    def test_same_load_after_frequency_change_uses_new_clock(self, clock):
        """The power memo is keyed on the clock ratio too: after a DVFS
        switch, revisiting a load draws the new clock's power."""
        gpu = GpuDevice("g0", clock, A100_PCIE_40GB)
        model = A100_PCIE_40GB.power_model
        gpu.set_load(1.0, 0.5)
        clock.advance(1.0)
        gpu.set_frequency(mhz(1005))
        clock.advance(1.0)
        gpu.set_idle()
        clock.advance(1.0)
        gpu.set_load(1.0, 0.5)
        ratio = gpu.frequency.ratio
        assert ratio < 1.0
        assert gpu.power_now() == model.power(ratio, 1.0, 0.5)
        assert gpu.power_now() < model.power(1.0, 1.0, 0.5)
        gpu.set_frequency(A100_PCIE_40GB.nominal_freq_hz)
        assert gpu.power_now() == model.power(1.0, 1.0, 0.5)


class TestGpuCard:
    def test_single_gcd_card(self, clock):
        gpu = GpuDevice("g0", clock, A100_SXM4_80GB)
        card = GpuCard("c0", [gpu])
        assert card.num_gcds == 1
        assert card.power_at(0.0) == pytest.approx(gpu.power_now())

    def test_dual_gcd_card_sums_gcds(self, clock):
        g0 = GpuDevice("g0", clock, MI250X_GCD)
        g1 = GpuDevice("g1", clock, MI250X_GCD)
        card = GpuCard("c0", [g0, g1], card_overhead_watts=16.0)
        expected = g0.power_now() + g1.power_now() + 16.0
        assert card.power_at(0.0) == pytest.approx(expected)

    def test_card_cannot_see_which_gcd_is_busy(self, clock):
        """The per-card sensor ambiguity at the heart of Section 3.1."""
        g0 = GpuDevice("g0", clock, MI250X_GCD)
        g1 = GpuDevice("g1", clock, MI250X_GCD)
        card = GpuCard("c0", [g0, g1])
        g0.set_load(1.0, 1.0)
        only_g0 = card.power_at(clock.now)
        g0.set_idle()
        g1.set_load(1.0, 1.0)
        only_g1 = card.power_at(clock.now)
        assert only_g0 == pytest.approx(only_g1)

    def test_wrong_gcd_count_rejected(self, clock):
        g0 = GpuDevice("g0", clock, MI250X_GCD)
        with pytest.raises(HardwareError):
            GpuCard("c0", [g0])  # MI250X spec expects 2 GCDs per card

    def test_empty_card_rejected(self, clock):
        with pytest.raises(HardwareError):
            GpuCard("c0", [])


class TestNode:
    def test_lumi_node_shape(self, clock):
        node = Node("n0", clock, LUMI_G.node_spec)
        assert node.num_gpu_units == 8
        assert node.num_cards == 4
        assert node.card_of(0) is node.cards[0]
        assert node.card_of(1) is node.cards[0]
        assert node.card_of(2) is node.cards[1]

    def test_cscs_node_shape(self, clock):
        node = Node("n0", clock, CSCS_A100.node_spec)
        assert node.num_gpu_units == 4
        assert node.num_cards == 4

    def test_node_power_includes_all_components(self, clock):
        node = Node("n0", clock, MINIHPC.node_spec)
        parts = (
            node.cpu.power_now()
            + node.memory.power_now()
            + node.nic.power_now()
            + sum(g.power_now() for g in node.gpus)
            + node.spec.aux_watts
        )
        assert node.power_at(0.0) == pytest.approx(parts)

    def test_idle_power_matches_trace(self, clock):
        node = Node("n0", clock, LUMI_G.node_spec)
        assert node.idle_power() == pytest.approx(node.power_at(0.0))

    def test_set_gpu_frequency_all_units(self, clock):
        node = Node("n0", clock, MINIHPC.node_spec)
        node.set_gpu_frequency(mhz(1005))
        assert all(g.frequency.current_hz == mhz(1005) for g in node.gpus)

    def test_lumi_frequency_not_user_controllable(self, clock):
        node = Node("n0", clock, LUMI_G.node_spec)
        with pytest.raises(DvfsError):
            node.set_gpu_frequency(mhz(1000))
        node.set_gpu_frequency(mhz(1000), privileged=True)

    def test_all_idle(self, clock):
        node = Node("n0", clock, MINIHPC.node_spec)
        for g in node.gpus:
            g.set_load(1.0, 1.0)
        node.all_idle()
        assert node.power_at(clock.now) == pytest.approx(node.idle_power())

    def test_energy_between(self, clock):
        node = Node("n0", clock, MINIHPC.node_spec)
        clock.advance(10.0)
        assert node.energy_between(0.0, 10.0) == pytest.approx(
            node.idle_power() * 10.0
        )


class TestNetworkModel:
    def test_transfer_time_latency_plus_bandwidth(self):
        net = NetworkModel(latency_s=1e-6, bandwidth_bytes_per_s=1e9)
        assert net.transfer_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_intra_node_faster(self):
        net = NetworkModel(
            latency_s=1e-6, bandwidth_bytes_per_s=1e9, intra_node_factor=4.0
        )
        assert net.transfer_time(1e6, intra_node=True) < net.transfer_time(1e6)

    def test_negative_bytes_rejected(self):
        net = NetworkModel(latency_s=0.0, bandwidth_bytes_per_s=1e9)
        with pytest.raises(ValueError):
            net.transfer_time(-1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(HardwareError):
            NetworkModel(latency_s=-1.0, bandwidth_bytes_per_s=1e9)
        with pytest.raises(HardwareError):
            NetworkModel(latency_s=0.0, bandwidth_bytes_per_s=0.0)
        with pytest.raises(HardwareError):
            NetworkModel(
                latency_s=0.0, bandwidth_bytes_per_s=1e9, intra_node_factor=0.5
            )


class TestCluster:
    def test_cluster_assembly(self, clock):
        cluster = Cluster("c", clock, LUMI_G.node_spec, 3, LUMI_G.network)
        assert cluster.num_nodes == 3
        assert cluster.total_gpu_units == 24
        assert cluster.total_cards == 12

    def test_cluster_energy_sums_nodes(self, clock):
        cluster = Cluster("c", clock, MINIHPC.node_spec, 1, MINIHPC.network)
        clock.advance(4.0)
        expected = cluster.nodes[0].energy_between(0.0, 4.0)
        assert cluster.energy_between(0.0, 4.0) == pytest.approx(expected)

    def test_cluster_frequency_broadcast(self, clock):
        cluster = Cluster("c", clock, MINIHPC.node_spec, 1, MINIHPC.network)
        cluster.set_gpu_frequency(mhz(1050))
        for node in cluster.nodes:
            for gpu in node.gpus:
                assert gpu.frequency.current_hz == mhz(1050)

    def test_empty_cluster_rejected(self, clock):
        with pytest.raises(HardwareError):
            Cluster("c", clock, MINIHPC.node_spec, 0, MINIHPC.network)
