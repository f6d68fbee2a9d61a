"""Cross-layer property-based tests (hypothesis).

Invariants that must hold across arbitrary inputs: energy bookkeeping
consistency between layers, performance-model monotonicity, placement
bijectivity, PMT interval additivity.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.pmt as pmt
from repro.config import CSCS_A100, LUMI_G, MINIHPC
from repro.hardware import Cluster, VirtualClock
from repro.mpi import CommCostModel, RankPlacement, RankWork, SpmdEngine
from repro.pmt import PMT
from repro.sensors import NodeTelemetry
from repro.sph.perfmodel import SphPerformanceModel
from repro.sph.propagator import TURBULENCE_FUNCTIONS
from repro.units import mhz


class TestEnergyBookkeeping:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=5.0),   # duration
                st.floats(min_value=0.0, max_value=1.0),   # gpu compute
                st.floats(min_value=0.0, max_value=1.0),   # gpu memory
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_node_energy_equals_sum_of_parts(self, phases):
        """Ground truth: node trace == devices + constant, whatever runs."""
        clock = VirtualClock()
        cluster = Cluster("c", clock, CSCS_A100.node_spec, 1, CSCS_A100.network)
        engine = SpmdEngine(RankPlacement(cluster))
        for duration, u_c, u_m in phases:
            works = [
                RankWork(duration=duration, gpu_compute=u_c, gpu_memory=u_m,
                         cpu_share=0.1, mem_share=0.1)
                for _ in range(4)
            ]
            engine.run_phase(works)
        node = cluster.nodes[0]
        t1 = clock.now
        parts = (
            node.cpu.energy_between(0, t1)
            + node.memory.energy_between(0, t1)
            + node.nic.energy_between(0, t1)
            + sum(g.energy_between(0, t1) for g in node.gpus)
            + node.spec.aux_watts * t1
        )
        assert node.energy_between(0, t1) == pytest.approx(parts, rel=1e-9)

    @given(
        st.floats(min_value=1.0, max_value=60.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_pmt_interval_additivity(self, duration, load):
        """joules(a, c) == joules(a, b) + joules(b, c) for any split."""
        clock = VirtualClock()
        cluster = Cluster("c", clock, LUMI_G.node_spec, 1, LUMI_G.network)
        telemetry = NodeTelemetry(cluster.nodes[0], LUMI_G, clock)
        meter = pmt.create("cray", telemetry=telemetry)
        a = meter.read()
        cluster.nodes[0].gpus[0].set_load(load, load)
        clock.advance(duration * 0.4)
        b = meter.read()
        clock.advance(duration * 0.6)
        c = meter.read()
        assert PMT.joules(a, c) == pytest.approx(
            PMT.joules(a, b) + PMT.joules(b, c), abs=1e-9
        )

    @given(st.floats(min_value=0.5, max_value=50.0))
    @settings(max_examples=15, deadline=None)
    def test_sensor_never_exceeds_truth_by_much(self, duration):
        """Quantized counters stay within cadence+quantum of ground truth."""
        clock = VirtualClock()
        cluster = Cluster("c", clock, LUMI_G.node_spec, 1, LUMI_G.network)
        telemetry = NodeTelemetry(cluster.nodes[0], LUMI_G, clock)
        base = telemetry.pm_counters.read_node(0.0).joules
        cluster.nodes[0].gpus[0].set_load(0.7, 0.7)
        clock.advance(duration)
        measured = telemetry.pm_counters.read_node(clock.now).joules - base
        truth = cluster.nodes[0].energy_between(0, clock.now)
        max_power = 4000.0  # generous node ceiling
        tolerance = 0.1 * max_power + 1.0 + 0.02 * truth
        assert abs(measured - truth) <= tolerance


class TestPerfModelProperties:
    def _model(self, system, particles):
        clock = VirtualClock()
        cluster = Cluster("c", clock, system.node_spec, 1, system.network)
        placement = RankPlacement(cluster)
        return cluster, SphPerformanceModel(
            CommCostModel(system.network, placement), particles, jitter=0.0
        )

    @given(
        st.sampled_from(sorted(TURBULENCE_FUNCTIONS)),
        st.floats(min_value=1e6, max_value=2e8),
        st.floats(min_value=1.5, max_value=8.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_time_monotone_in_particles(self, function, n, factor):
        cluster, small = self._model(CSCS_A100, n)
        _, large = self._model(CSCS_A100, n * factor)
        gpu = cluster.nodes[0].gpus[0]
        assert (
            large.phases(function, gpu, 0, 0).kernel_seconds
            > small.phases(function, gpu, 0, 0).kernel_seconds
        )

    @given(
        st.sampled_from(sorted(TURBULENCE_FUNCTIONS)),
        st.sampled_from([1365, 1230, 1095, 1005]),
    )
    @settings(max_examples=30, deadline=None)
    def test_downclock_never_speeds_up(self, function, freq):
        cluster, model = self._model(MINIHPC, 450.0**3)
        gpu = cluster.nodes[0].gpus[0]
        nominal = model.phases(function, gpu, 0, 0).kernel_seconds
        gpu.set_frequency(mhz(freq))
        low = model.phases(function, gpu, 0, 0).kernel_seconds
        assert low >= nominal * (1 - 1e-9)

    @given(st.sampled_from(sorted(TURBULENCE_FUNCTIONS)))
    @settings(max_examples=15, deadline=None)
    def test_busy_power_drops_with_frequency(self, function):
        """Whatever the function, the modelled GPU power at its load is
        lower at the reduced clock."""
        cluster, model = self._model(MINIHPC, 450.0**3)
        gpu = cluster.nodes[0].gpus[0]

        def busy_watts():
            ph = model.phases(function, gpu, 0, 0)
            return gpu.power_model.power(
                gpu.frequency.ratio, ph.gpu_compute, ph.gpu_memory
            )

        at_nominal = busy_watts()
        gpu.set_frequency(mhz(1005))
        assert busy_watts() < at_nominal


class TestPlacementProperties:
    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_rank_to_gpu_bijection(self, num_nodes):
        clock = VirtualClock()
        cluster = Cluster("c", clock, LUMI_G.node_spec, num_nodes, LUMI_G.network)
        placement = RankPlacement(cluster)
        gpus = {id(placement.gpu_of(r)) for r in range(placement.size)}
        assert len(gpus) == placement.size == cluster.total_gpu_units

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=6, deadline=None)
    def test_sensor_groups_partition_ranks(self, num_nodes):
        clock = VirtualClock()
        cluster = Cluster("c", clock, LUMI_G.node_spec, num_nodes, LUMI_G.network)
        placement = RankPlacement(cluster)
        groups = placement.sensor_sharing_groups()
        flattened = [r for group in groups for r in group]
        assert sorted(flattened) == list(range(placement.size))
        assert all(len(g) == 2 for g in groups)  # MI250X pairs
