"""Tests for the dynamic per-function DVFS extension (paper future work)."""

import pytest

from repro.config import MINIHPC, SUBSONIC_TURBULENCE
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.runner import run_scaled_experiment
from repro.sph.propagator import TURBULENCE_FUNCTIONS
from repro.tuning import (
    SWITCH_FUNCTION,
    DynamicDvfsApplication,
    FunctionSweepPoint,
    TuningReport,
    build_oracle_policy,
    tune_per_function,
)

FREQS = (1410.0, 1230.0, 1005.0)
SIDE = 450.0


def sweep_point(fn, freq, seconds, joules):
    return FunctionSweepPoint(
        function=fn, freq_mhz=freq, seconds=seconds, joules=joules
    )


def one_clock_table(mhz, **overrides):
    """Every turbulence function at ``mhz``, except ``overrides``."""
    return {fn: mhz for fn in TURBULENCE_FUNCTIONS} | overrides


def run_table(table):
    """A two-step miniHPC turbulence run re-clocked by ``table``."""
    return run_scaled_experiment(
        MINIHPC,
        SUBSONIC_TURBULENCE,
        num_cards=2,
        gpu_freq_mhz=1410.0,
        num_steps=2,
        particles_per_rank=1e7,
        governor=table,
    )


class TestOracleBuilder:
    def make_points(self):
        return [
            # Compute-bound: stretches at low frequency, EDP worse.
            sweep_point("ME", 1410.0, 10.0, 2000.0),
            sweep_point("ME", 1005.0, 14.0, 1800.0),
            # Memory-bound: same time, less energy at low frequency.
            sweep_point("Density", 1410.0, 5.0, 1000.0),
            sweep_point("Density", 1005.0, 5.0, 700.0),
        ]

    def test_edp_objective(self):
        table = build_oracle_policy(self.make_points(), 1410.0)
        assert table == {"ME": 1410.0, "Density": 1005.0}

    def test_energy_objective_unconstrained(self):
        table = build_oracle_policy(
            self.make_points(), 1410.0, objective="energy"
        )
        # Pure energy minimization down-clocks even the compute-bound kernel.
        assert table["ME"] == 1005.0

    def test_energy_objective_with_slowdown_constraint(self):
        table = build_oracle_policy(
            self.make_points(), 1410.0, objective="energy", max_slowdown=1.1
        )
        # 14 s > 1.1 * 10 s: the low frequency is infeasible for ME.
        assert table["ME"] == 1410.0
        assert table["Density"] == 1005.0

    def test_tolerance_prefers_lower_frequency(self):
        points = [
            sweep_point("F", 1410.0, 10.0, 1000.0),  # EDP 10000 (best)
            sweep_point("F", 1005.0, 10.0, 1020.0),  # EDP 10200 (within 3%)
        ]
        assert build_oracle_policy(points, 1410.0)["F"] == 1410.0
        assert build_oracle_policy(points, 1410.0, tolerance=0.03)["F"] == 1005.0

    def test_min_function_seconds_exempts_short_functions(self):
        points = self.make_points() + [
            sweep_point("Tiny", 1410.0, 0.01, 1.0),
            sweep_point("Tiny", 1005.0, 0.01, 0.1),
        ]
        table = build_oracle_policy(points, 1410.0, min_function_seconds=1.0)
        assert "Tiny" not in table
        assert table["Density"] == 1005.0

    def test_missing_baseline_rejected(self):
        with pytest.raises(ConfigurationError):
            build_oracle_policy([sweep_point("F", 1005.0, 1.0, 1.0)], 1410.0)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ConfigurationError):
            build_oracle_policy(self.make_points(), 1410.0, objective="power")

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            build_oracle_policy(self.make_points(), 1410.0, tolerance=-0.1)


class TestDynamicApplication:
    def test_switch_counting_and_snapping(self):
        # 1200 is not a supported A100 step; must snap to 1185/1230.
        table = one_clock_table(1410.0, MomentumEnergy=1200.0)
        result = run_table(table)
        # ME switches down, the next function switches back: 2 per step.
        assert result.governor.switches == 4
        assert result.run.num_ranks == 2
        assert result.governor.policy == "oracle"
        assert result.governor.clock_table == table
        assert result.governor.decisions == 0
        assert result.power_samplers == ()  # a table needs no sampler

    def test_static_policy_never_switches_after_start(self):
        result = run_table(one_clock_table(1410.0))
        assert result.governor.switches == 0

    def test_missing_function_keeps_running_clock(self):
        # Only ME is in the table: it switches down once, and every other
        # function keeps the running clock instead of switching back.
        result = run_table({"MomentumEnergy": 1005.0})
        assert result.governor.switches == 1

    def test_skewed_per_rank_clocks_are_healed(self):
        """Regression: the clock check must look at *every* rank's clock.

        Deciding from rank 0 alone would return early here — rank 0 is
        already at the target — and leave the skewed rank behind forever.
        """
        from repro.hardware import Cluster, VirtualClock
        from repro.instrumentation import EnergyProfiler
        from repro.mpi import CommCostModel, RankPlacement, SpmdEngine
        from repro.sensors import NodeTelemetry
        from repro.sph.perfmodel import SphPerformanceModel
        from repro.units import mhz

        system = MINIHPC
        clock = VirtualClock()
        cluster = Cluster(
            "c", clock, system.node_spec, 1, system.network
        )
        placement = RankPlacement(cluster)
        engine = SpmdEngine(placement)
        telemetries = [
            NodeTelemetry(node, system, clock, seed=i)
            for i, node in enumerate(cluster.nodes)
        ]
        profiler = EnergyProfiler(placement, telemetries, system)
        app = DynamicDvfsApplication(
            engine=engine,
            profiler=profiler,
            perfmodel=SphPerformanceModel(
                CommCostModel(system.network, placement), 1e6
            ),
            functions=("A",),
            num_steps=1,
            test_case_name="t",
            clock_for={"A": 1410.0}.get,
        )
        assert placement.size >= 2
        # Skew: rank 0 at the target already, rank 1 behind.
        placement.gpu_of(0).set_frequency(mhz(1410.0))
        placement.gpu_of(1).set_frequency(mhz(1005.0))
        profiler.start_app()
        app._apply_clock("A")
        clocks = {
            placement.gpu_of(rank).frequency.current_hz
            for rank in range(placement.size)
        }
        assert clocks == {mhz(1410.0)}
        assert app.switch_count == 1

    def test_switch_energy_isolated_from_functions(self):
        """Regression: relock idle energy lands in ``dvfs-switch``, not in
        the surrounding functions' windows.

        The GPU counter samples power at 50 ms ticks (left rectangles), so
        at most one boundary tick of smear per region edge is genuine
        sensor behaviour — it moves between adjacent windows whenever the
        timeline shifts, switch latency or not.  The pre-fix bug folded the
        *entire* idle window into the next function's measurement, which
        grows without bound in the latency; the fix caps any per-function
        shift at the smear bound while the isolated ``dvfs-switch`` term
        carries the idle energy.  A latency that is an exact multiple of
        the sensor tick keeps every later region's tick phase identical to
        the zero-latency run, so the smear bound is tight here.
        """
        from repro.analysis.aggregate import function_totals
        from repro.sensors.nvml import NVML_PERIOD_S

        table = one_clock_table(1410.0, MomentumEnergy=1005.0)
        num_steps = 2
        latency = 10 * NVML_PERIOD_S  # tick-aligned, dwarfs boundary smear

        def run(latency):
            from repro.hardware import Cluster, VirtualClock
            from repro.instrumentation import EnergyProfiler
            from repro.mpi import CommCostModel, RankPlacement, SpmdEngine
            from repro.sensors import NodeTelemetry
            from repro.sph.perfmodel import SphPerformanceModel

            system = MINIHPC
            clock = VirtualClock()
            cluster = Cluster("c", clock, system.node_spec, 1, system.network)
            placement = RankPlacement(cluster)
            engine = SpmdEngine(placement)
            telemetries = [
                NodeTelemetry(node, system, clock, seed=i)
                for i, node in enumerate(cluster.nodes)
            ]
            profiler = EnergyProfiler(placement, telemetries, system)
            app = DynamicDvfsApplication(
                engine=engine,
                profiler=profiler,
                perfmodel=SphPerformanceModel(
                    CommCostModel(system.network, placement), 1e7
                ),
                functions=TURBULENCE_FUNCTIONS,
                num_steps=num_steps,
                test_case_name=SUBSONIC_TURBULENCE.name,
                clock_for=table.get,
                switch_latency_s=latency,
            )
            return app.run(), app.switch_count

        with_latency, switches = run(latency)
        without_latency, _ = run(0.0)
        assert switches > 0
        hot = function_totals(with_latency, "gpu")
        cold = function_totals(without_latency, "gpu")
        switch_term = hot.pop(SWITCH_FUNCTION)
        assert SWITCH_FUNCTION not in cold

        # Timing isolation is exact: the relock stall never inflates a
        # function's measured seconds, and the switch span accounts for
        # every idle second on every rank.
        hot_seconds = {}
        for rec in with_latency.records:
            hot_seconds[rec.function] = (
                hot_seconds.get(rec.function, 0.0) + rec.seconds
            )
        switch_seconds = hot_seconds.pop(SWITCH_FUNCTION)
        assert switch_seconds == pytest.approx(
            switches * latency * with_latency.num_ranks, rel=1e-12
        )
        cold_seconds = {}
        for rec in without_latency.records:
            cold_seconds[rec.function] = (
                cold_seconds.get(rec.function, 0.0) + rec.seconds
            )
        for fn, seconds in hot_seconds.items():
            assert seconds == pytest.approx(cold_seconds[fn], rel=1e-12)

        # Energy isolation up to sensor-boundary smear: each function call
        # bordering a switch can exchange at most one 50 ms tick of energy
        # with its neighbour per edge (two edges x num_steps calls, at
        # card peak power in the worst case).
        card_peak = MINIHPC.node_spec.card_peak_watts
        smear = 2 * num_steps * NVML_PERIOD_S * card_peak
        assert switch_term > 2 * smear  # the isolated term is unmistakable
        for fn, joules in hot.items():
            assert joules == pytest.approx(cold[fn], abs=smear)

    def test_negative_latency_rejected(self):
        with pytest.raises(SimulationError):
            # Engine internals irrelevant; the constructor validates first.
            DynamicDvfsApplication(
                engine=None,  # type: ignore[arg-type]
                profiler=None,  # type: ignore[arg-type]
                perfmodel=None,  # type: ignore[arg-type]
                functions=("A",),
                num_steps=1,
                test_case_name="t",
                clock_for={}.get,
                switch_latency_s=-1.0,
            )


class TestReportGuards:
    def make_report(self, baseline_edp=100.0, best_static_edp=90.0):
        return TuningReport(
            clock_table={},
            baseline_edp=baseline_edp,
            baseline_seconds=10.0,
            best_static_mhz=1005.0,
            best_static_edp=best_static_edp,
            dynamic_edp=80.0,
            dynamic_seconds=11.0,
            dynamic_run=None,
            switch_count=0,
        )

    def test_ratios_on_healthy_denominators(self):
        report = self.make_report()
        assert report.edp_vs_baseline == pytest.approx(0.8)
        assert report.edp_vs_best_static == pytest.approx(80.0 / 90.0)

    def test_zero_baseline_edp_raises_typed_error(self):
        report = self.make_report(baseline_edp=0.0)
        with pytest.raises(ConfigurationError):
            report.edp_vs_baseline

    def test_zero_best_static_edp_raises_typed_error(self):
        report = self.make_report(best_static_edp=0.0)
        with pytest.raises(ConfigurationError):
            report.edp_vs_best_static


class TestEndToEndTuning:
    @pytest.fixture(scope="class")
    def report(self):
        return tune_per_function(
            MINIHPC,
            SUBSONIC_TURBULENCE,
            num_cards=2,
            freqs_mhz=FREQS,
            num_steps=10,
            particles_per_rank=SIDE**3,
        )

    def test_dynamic_beats_baseline_edp(self, report):
        assert report.edp_vs_baseline < 0.95

    def test_dynamic_competitive_with_best_static(self, report):
        assert report.edp_vs_best_static < 1.05

    def test_policy_downclocks_memory_bound_functions(self, report):
        assert report.clock_table["Density"] == 1005.0
        assert report.clock_table["DomainDecompAndSync"] == 1005.0

    def test_dynamic_run_shares_the_sweep_job_context(self, report):
        """Regression: the tuned run is measured inside a Slurm job like
        its static baselines, so its application window starts after the
        same job launch and init phase (a run outside any job starts at
        t = 0)."""
        baseline = run_scaled_experiment(
            MINIHPC,
            SUBSONIC_TURBULENCE,
            num_cards=2,
            gpu_freq_mhz=max(FREQS),
            num_steps=10,
            particles_per_rank=SIDE**3,
        )
        assert baseline.run.app_start > 0.0
        assert report.dynamic_run.app_start == baseline.run.app_start

    def test_few_switches(self, report):
        # Near-ties collapse + short-function exemption keep switching rare.
        assert report.switch_count <= 3 * report.dynamic_run.num_steps

    def test_constrained_tuning_is_pareto(self):
        """Energy savings under a tight slowdown budget: a point no static
        frequency reaches (static low-clock violates the budget, static
        nominal saves nothing)."""
        report = tune_per_function(
            MINIHPC,
            SUBSONIC_TURBULENCE,
            num_cards=2,
            freqs_mhz=FREQS,
            num_steps=10,
            particles_per_rank=SIDE**3,
            objective="energy",
            max_slowdown=1.03,
        )
        dilation = report.dynamic_seconds / report.baseline_seconds
        assert dilation < 1.04  # honours the budget (plus switch overhead)
        assert report.edp_vs_baseline < 0.97  # and still saves energy
        # Compute-bound kernels stay fast, memory-bound ones down-clock.
        assert report.clock_table["MomentumEnergy"] == 1410.0
        assert report.clock_table["Density"] == 1005.0
