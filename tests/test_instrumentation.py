"""Tests for the PMT instrumentation layer: profiler, records, reports."""

import pytest

from repro.config import CSCS_A100, LUMI_G, SUBSONIC_TURBULENCE
from repro.errors import AnalysisError, CommunicatorError, MeasurementError
from repro.hardware import Cluster, VirtualClock
from repro.instrumentation import (
    EnergyProfiler,
    FunctionEnergyRecord,
    RunMeasurements,
    device_report,
    function_report,
)
from repro.mpi import CommCostModel, RankPlacement, RankWork, SpmdEngine
from repro.sensors import NodeTelemetry
from repro.sph.perfmodel import SphPerformanceModel
from repro.sph.propagator import TURBULENCE_FUNCTIONS
from repro.sph.scaled import ScaledSphApplication


def make_stack(system, num_nodes=1):
    clock = VirtualClock()
    cluster = Cluster("c", clock, system.node_spec, num_nodes, system.network)
    telemetries = [
        NodeTelemetry(node, system, clock, seed=i)
        for i, node in enumerate(cluster.nodes)
    ]
    placement = RankPlacement(cluster)
    engine = SpmdEngine(placement)
    profiler = EnergyProfiler(placement, telemetries, system)
    return clock, cluster, placement, engine, profiler


def run_small_app(system, num_nodes=1, steps=3, particles=30e6):
    clock, cluster, placement, engine, profiler = make_stack(system, num_nodes)
    cost_model = CommCostModel(system.network, placement)
    perfmodel = SphPerformanceModel(cost_model, particles)
    app = ScaledSphApplication(
        engine=engine,
        profiler=profiler,
        perfmodel=perfmodel,
        functions=TURBULENCE_FUNCTIONS,
        num_steps=steps,
        test_case_name=SUBSONIC_TURBULENCE.name,
    )
    return cluster, app.run()


class TestProfilerBasics:
    def test_begin_end_cycle(self):
        clock, cluster, placement, engine, profiler = make_stack(CSCS_A100)
        profiler.begin(0)
        works = [RankWork(duration=5.0, gpu_compute=0.9)] * placement.size
        engine.run_phase(works)
        profiler.end(0, "MomentumEnergy")
        profiler.start_app()
        profiler.end_app()
        run = profiler.gather("t", 1, 1e6)
        rec = run.record(0, "MomentumEnergy")
        assert rec.calls == 1
        assert rec.seconds == pytest.approx(5.0)
        truth = cluster.nodes[0].cards[0].energy_between(0.0, 5.0)
        assert rec.joules["gpu"] == pytest.approx(truth, rel=0.05)

    def test_double_begin_rejected(self):
        *_, profiler = make_stack(CSCS_A100)
        profiler.begin(0)
        with pytest.raises(MeasurementError):
            profiler.begin(0)

    def test_end_without_begin_rejected(self):
        *_, profiler = make_stack(CSCS_A100)
        with pytest.raises(MeasurementError):
            profiler.end(0, "Density")

    def test_gather_requires_app_window(self):
        *_, profiler = make_stack(CSCS_A100)
        with pytest.raises(MeasurementError):
            profiler.gather("t", 1, 1e6)

    @pytest.mark.parametrize("system", [LUMI_G, CSCS_A100])
    def test_out_of_range_rank_rejected(self, system):
        *_, placement, _, profiler = make_stack(system)
        for rank in (-1, placement.size):
            with pytest.raises(CommunicatorError):
                profiler.snapshot(rank)
            with pytest.raises(CommunicatorError):
                profiler.begin(rank)

    def test_counters_present_per_platform(self):
        for system, expect_memory in ((LUMI_G, True), (CSCS_A100, False)):
            *_, profiler = make_stack(system)
            snap = profiler.snapshot(0)
            assert {"gpu", "cpu", "node"} <= set(snap)
            assert ("memory" in snap) == expect_memory


class TestScaledApplication:
    def test_records_every_function_and_rank(self):
        cluster, run = run_small_app(CSCS_A100)
        assert set(run.functions()) == set(TURBULENCE_FUNCTIONS)
        for rank in range(run.num_ranks):
            rec = run.record(rank, "MomentumEnergy")
            assert rec.calls == 3

    def test_energy_nonnegative_and_positive_for_long_functions(self):
        """Counters never run backwards; pm_counters' 10 Hz / 1 J
        quantization may legitimately report 0 J for sub-100 ms functions
        (EquationOfState and friends), but anything that runs for a
        sizable fraction of a second must show energy."""
        _, run = run_small_app(LUMI_G)
        for rec in run.records:
            assert all(v >= 0 for v in rec.joules.values())
            if rec.seconds > 0.5:
                assert rec.joules["gpu"] > 0
                assert rec.joules["cpu"] > 0

    def test_app_window_covers_sum_of_functions(self):
        _, run = run_small_app(CSCS_A100)
        per_rank = {}
        for rec in run.records:
            per_rank[rec.rank] = per_rank.get(rec.rank, 0.0) + rec.seconds
        for total in per_rank.values():
            assert total <= run.app_seconds + 1e-9
            assert total > 0.9 * run.app_seconds  # little dead time

    def test_node_windows_match_ground_truth(self):
        cluster, run = run_small_app(LUMI_G)
        node = cluster.nodes[0]
        truth = node.energy_between(run.app_start, run.app_end)
        assert run.node_windows[0].node_joules == pytest.approx(truth, rel=0.03)

    def test_lumi_card_counters_cover_pairs_of_ranks(self):
        cluster, run = run_small_app(LUMI_G)
        rec0 = run.record(0, "MomentumEnergy")
        rec1 = run.record(1, "MomentumEnergy")
        # Both GCD ranks of card 0 measured the same (whole-card) counter,
        # so their raw readings are nearly identical.
        assert rec0.joules["gpu"] == pytest.approx(rec1.joules["gpu"], rel=0.1)

    def test_invalid_construction(self):
        clock, cluster, placement, engine, profiler = make_stack(CSCS_A100)
        cost_model = CommCostModel(CSCS_A100.network, placement)
        perfmodel = SphPerformanceModel(cost_model, 1e6)
        with pytest.raises(Exception):
            ScaledSphApplication(engine, profiler, perfmodel, (), 3, "t")
        with pytest.raises(Exception):
            ScaledSphApplication(
                engine, profiler, perfmodel, TURBULENCE_FUNCTIONS, 0, "t"
            )


class TestRecordsSerialization:
    def test_roundtrip(self, tmp_path):
        _, run = run_small_app(CSCS_A100, steps=2)
        path = tmp_path / "measurements.json"
        run.write(path)
        loaded = RunMeasurements.read(path)
        assert loaded.system_name == run.system_name
        assert loaded.num_ranks == run.num_ranks
        assert loaded.app_seconds == pytest.approx(run.app_seconds)
        rec = loaded.record(0, "Density")
        assert rec.joules == run.record(0, "Density").joules

    def test_malformed_file_rejected(self):
        with pytest.raises(AnalysisError):
            RunMeasurements.from_json("{\"bogus\": 1}")

    def test_record_lookup_missing(self):
        _, run = run_small_app(CSCS_A100, steps=1)
        with pytest.raises(AnalysisError):
            run.record(0, "NoSuchFunction")

    def test_accumulate_rejects_negative_time(self):
        rec = FunctionEnergyRecord(rank=0, function="f")
        with pytest.raises(AnalysisError):
            rec.accumulate(-1.0, {})


class TestReports:
    def test_device_report_contents(self):
        _, run = run_small_app(LUMI_G, steps=2)
        text = device_report(run)
        assert "LUMI-G" in text
        assert "GPU" in text and "Memory" in text and "Other" in text
        assert "MJ" in text

    def test_function_report_contents(self):
        _, run = run_small_app(CSCS_A100, steps=2)
        text = function_report(run, "gpu")
        assert "MomentumEnergy" in text
        assert "DomainDecompAndSync" in text


class TestInstrumentationOverhead:
    def test_negative_overhead_rejected(self):
        clock, cluster, placement, engine, profiler = make_stack(CSCS_A100)
        cost_model = CommCostModel(CSCS_A100.network, placement)
        perfmodel = SphPerformanceModel(cost_model, 1e6)
        with pytest.raises(Exception):
            ScaledSphApplication(
                engine, profiler, perfmodel, TURBULENCE_FUNCTIONS, 1, "t",
                instrumentation_overhead_s=-1.0,
            )

    def test_small_overhead_fully_hidden(self):
        def app_seconds(overhead):
            clock, cluster, placement, engine, profiler = make_stack(CSCS_A100)
            cost_model = CommCostModel(CSCS_A100.network, placement)
            perfmodel = SphPerformanceModel(cost_model, 30e6)
            app = ScaledSphApplication(
                engine, profiler, perfmodel, TURBULENCE_FUNCTIONS, 2,
                "t", instrumentation_overhead_s=overhead,
            )
            return app.run().app_seconds

        assert app_seconds(1e-4) == app_seconds(0.0)

    def test_huge_overhead_dilates(self):
        def app_seconds(overhead):
            clock, cluster, placement, engine, profiler = make_stack(CSCS_A100)
            cost_model = CommCostModel(CSCS_A100.network, placement)
            perfmodel = SphPerformanceModel(cost_model, 30e6)
            app = ScaledSphApplication(
                engine, profiler, perfmodel, TURBULENCE_FUNCTIONS, 2,
                "t", instrumentation_overhead_s=overhead,
            )
            return app.run().app_seconds

        assert app_seconds(2.0) > 1.5 * app_seconds(0.0)
