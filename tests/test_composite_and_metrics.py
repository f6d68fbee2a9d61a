"""Tests for the composite PMT backend."""

import pytest

import repro.pmt as pmt
from repro.config import CSCS_A100
from repro.errors import BackendError
from repro.hardware import Node, VirtualClock
from repro.pmt import PMT
from repro.sensors import NodeTelemetry


@pytest.fixture
def node_stack():
    clock = VirtualClock()
    node = Node("n0", clock, CSCS_A100.node_spec)
    telemetry = NodeTelemetry(node, CSCS_A100, clock)
    return clock, node, telemetry


class TestCompositeBackend:
    def test_registered(self):
        assert "composite" in pmt.available_backends()

    def test_primary_is_sum_of_children(self, node_stack):
        clock, node, telemetry = node_stack
        gpu = pmt.create("nvml", telemetry=telemetry, device_index=0)
        cpu = pmt.create("rapl", telemetry=telemetry)
        meter = pmt.create("composite", meters={"gpu0": gpu, "cpu": cpu})

        start = meter.read()
        node.gpus[0].set_load(1.0, 0.8)
        node.cpu.set_load(0.5, 0.3)
        clock.advance(20.0)
        node.all_idle()
        end = meter.read()

        total = PMT.joules(start, end)
        per_child = PMT.joules(start, end, "gpu0.gpu0") + PMT.joules(
            start, end, "cpu.package-0"
        )
        assert total == pytest.approx(per_child, rel=1e-9)
        truth = node.cards[0].energy_between(0, 20.0) + node.cpu.energy_between(
            0, 20.0
        )
        assert total == pytest.approx(truth, rel=0.05)

    def test_child_names_prefixed(self, node_stack):
        _, _, telemetry = node_stack
        gpu = pmt.create("nvml", telemetry=telemetry, device_index=1)
        meter = pmt.create("composite", meters={"g": gpu})
        assert meter.read().names() == ("total", "g.gpu1")
        assert meter.children == ("g",)

    def test_empty_rejected(self):
        with pytest.raises(BackendError):
            pmt.create("composite", meters={})

    def test_mixed_clocks_rejected(self, node_stack):
        _, _, telemetry = node_stack
        gpu = pmt.create("nvml", telemetry=telemetry, device_index=0)
        other = pmt.create("dummy")  # its own private clock
        with pytest.raises(BackendError):
            pmt.create("composite", meters={"a": gpu, "b": other})

