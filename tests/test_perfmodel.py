"""Tests for the paper-scale roofline performance model."""

import pytest

from repro.config import CSCS_A100, LUMI_G, MINIHPC
from repro.errors import SimulationError
from repro.hardware import Cluster, VirtualClock
from repro.mpi import CommCostModel, RankPlacement
from repro.sph.calibration import FUNCTION_COSTS, efficiency
from repro.sph.perfmodel import SphPerformanceModel
from repro.sph.propagator import TURBULENCE_FUNCTIONS
from repro.units import mhz


def make_model(system, num_nodes=1, particles=150e6, jitter=0.0):
    clock = VirtualClock()
    cluster = Cluster("c", clock, system.node_spec, num_nodes, system.network)
    placement = RankPlacement(cluster)
    cost_model = CommCostModel(system.network, placement)
    return cluster, SphPerformanceModel(cost_model, particles, jitter=jitter)


class TestCalibrationTables:
    def test_every_loop_function_has_costs(self):
        for name in TURBULENCE_FUNCTIONS + ("Gravity",):
            assert name in FUNCTION_COSTS

    def test_efficiency_lookup(self):
        nv = efficiency("nvidia", "MomentumEnergy")
        amd = efficiency("amd", "MomentumEnergy")
        assert 0 < amd.flop_efficiency < nv.flop_efficiency <= 1

    def test_unknown_vendor_gets_default(self):
        assert efficiency("intel", "MomentumEnergy").flop_efficiency > 0

    def test_unknown_function_gets_vendor_default(self):
        assert efficiency("amd", "SomethingNew").flop_efficiency > 0


class TestPhases:
    def test_unknown_function_rejected(self):
        cluster, model = make_model(CSCS_A100)
        with pytest.raises(SimulationError):
            model.phases("NotAFunction", cluster.nodes[0].gpus[0], 0, 0)

    def test_invalid_particles_rejected(self):
        clock = VirtualClock()
        cluster = Cluster("c", clock, CSCS_A100.node_spec, 1, CSCS_A100.network)
        cost_model = CommCostModel(CSCS_A100.network, RankPlacement(cluster))
        with pytest.raises(SimulationError):
            SphPerformanceModel(cost_model, 0.0)

    def test_momentum_energy_compute_bound_stretches_with_downclock(self):
        cluster, model = make_model(MINIHPC, particles=450.0**3)
        gpu = cluster.nodes[0].gpus[0]
        at_nominal = model.phases("MomentumEnergy", gpu, 0, 0).kernel_seconds
        gpu.set_frequency(mhz(1005))
        at_low = model.phases("MomentumEnergy", gpu, 0, 0).kernel_seconds
        assert at_low > at_nominal * 1.15

    def test_memory_bound_function_insensitive_to_downclock(self):
        cluster, model = make_model(MINIHPC, particles=450.0**3)
        gpu = cluster.nodes[0].gpus[0]
        at_nominal = model.phases("Density", gpu, 0, 0).kernel_seconds
        gpu.set_frequency(mhz(1005))
        at_low = model.phases("Density", gpu, 0, 0).kernel_seconds
        assert at_low == pytest.approx(at_nominal, rel=0.10)

    def test_small_problem_latency_bound(self):
        """Below saturation, down-clocking barely stretches even compute
        kernels (the Figure 4 200^3 mechanism)."""
        cluster_small, model_small = make_model(MINIHPC, particles=200.0**3)
        gpu = cluster_small.nodes[0].gpus[0]
        nominal = model_small.phases("MomentumEnergy", gpu, 0, 0).kernel_seconds
        gpu.set_frequency(mhz(1005))
        low = model_small.phases("MomentumEnergy", gpu, 0, 0).kernel_seconds
        stretch_small = low / nominal

        cluster_big, model_big = make_model(MINIHPC, particles=450.0**3)
        gpu_big = cluster_big.nodes[0].gpus[0]
        nominal_big = model_big.phases("MomentumEnergy", gpu_big, 0, 0).kernel_seconds
        gpu_big.set_frequency(mhz(1005))
        low_big = model_big.phases("MomentumEnergy", gpu_big, 0, 0).kernel_seconds
        assert stretch_small < low_big / nominal_big

    def test_amd_momentum_energy_slower_than_nvidia(self):
        """The Figure 3 contrast: less-tuned HIP kernels on the MI250X."""
        lumi, lumi_model = make_model(LUMI_G)
        cscs, cscs_model = make_model(CSCS_A100)
        t_amd = lumi_model.phases(
            "MomentumEnergy", lumi.nodes[0].gpus[0], 0, 0
        ).kernel_seconds
        t_nv = cscs_model.phases(
            "MomentumEnergy", cscs.nodes[0].gpus[0], 0, 0
        ).kernel_seconds
        assert t_amd > 1.5 * t_nv

    def test_durations_scale_with_particles(self):
        cluster, small = make_model(CSCS_A100, particles=10e6)
        _, large = make_model(CSCS_A100, particles=100e6)
        gpu = cluster.nodes[0].gpus[0]
        assert (
            large.phases("Density", gpu, 0, 0).kernel_seconds
            > 5 * small.phases("Density", gpu, 0, 0).kernel_seconds
        )

    def test_comm_only_on_comm_functions(self):
        cluster, model = make_model(CSCS_A100, num_nodes=2)
        gpu = cluster.nodes[0].gpus[0]
        assert model.phases("DomainDecompAndSync", gpu, 0, 0).comm_seconds > 0
        assert model.phases("Timestep", gpu, 0, 0).comm_seconds > 0
        assert model.phases("MomentumEnergy", gpu, 0, 0).comm_seconds == 0

    def test_utilizations_in_range(self):
        cluster, model = make_model(LUMI_G)
        gpu = cluster.nodes[0].gpus[0]
        for fn in TURBULENCE_FUNCTIONS:
            ph = model.phases(fn, gpu, 0, 0)
            assert 0.0 <= ph.gpu_compute <= 1.0
            assert 0.0 <= ph.gpu_memory <= 1.0
            assert ph.kernel_seconds > 0

    def test_jitter_deterministic_and_bounded(self):
        cluster, model = make_model(CSCS_A100, jitter=0.02)
        gpu = cluster.nodes[0].gpus[0]
        a = model.phases("Density", gpu, rank=3, step=7).kernel_seconds
        b = model.phases("Density", gpu, rank=3, step=7).kernel_seconds
        c = model.phases("Density", gpu, rank=4, step=7).kernel_seconds
        assert a == b
        assert a != c
        base = model.phases("Density", gpu, 0, 0).kernel_seconds / (
            1 + model._jitter_factor("Density", 0, 0) - 1
        )
        assert abs(a - c) / a < 0.1

    def test_total_seconds(self):
        cluster, model = make_model(CSCS_A100, num_nodes=2)
        ph = model.phases("DomainDecompAndSync", cluster.nodes[0].gpus[0], 0, 0)
        assert ph.total_seconds == pytest.approx(
            ph.kernel_seconds + ph.comm_seconds
        )

    def test_step_time_in_calibrated_range(self):
        """At 150 M particles/rank a step takes a few seconds (paper scale)."""
        cluster, model = make_model(CSCS_A100)
        gpu = cluster.nodes[0].gpus[0]
        step = sum(
            model.phases(fn, gpu, 0, 0).total_seconds
            for fn in TURBULENCE_FUNCTIONS
        )
        assert 2.0 < step < 12.0
