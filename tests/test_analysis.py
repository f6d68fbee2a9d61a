"""Tests for the analysis layer: attribution, breakdowns, EDP, validation."""

import pytest

from repro.analysis import (
    DeviceBreakdown,
    device_breakdown,
    edp,
    function_breakdown,
    function_edp,
    normalized_edp_series,
    run_edp,
    sensor_sharing_factor,
    validate_pmt_against_slurm,
)
from repro.analysis.aggregate import function_totals
from repro.analysis.validation import pmt_total_joules
from repro.errors import AnalysisError
from repro.instrumentation.records import (
    FunctionEnergyRecord,
    NodeWindowRecord,
    RunMeasurements,
)
from repro.slurm.job import JobAccounting
from tests.oracles.measurement import attributed_joules


def make_run(system="LUMI-G", gcds_per_card=2, ranks=4, nodes=1, memory=True):
    records = []
    for rank in range(ranks):
        for fn, (sec, gpu, cpu) in {
            "MomentumEnergy": (10.0, 2000.0, 400.0),
            "Density": (5.0, 800.0, 200.0),
        }.items():
            joules = {"gpu": gpu, "cpu": cpu, "node": gpu + cpu + 100.0}
            if memory:
                joules["memory"] = 50.0
            records.append(
                FunctionEnergyRecord(
                    rank=rank, function=fn, calls=1, seconds=sec, joules=joules
                )
            )
    windows = [
        NodeWindowRecord(
            node_index=i,
            node_joules=10_000.0,
            cpu_joules=1_500.0,
            memory_joules=500.0 if memory else None,
            card_joules=[3_000.0, 3_200.0],
        )
        for i in range(nodes)
    ]
    return RunMeasurements(
        system_name=system,
        test_case="Subsonic Turbulence",
        num_ranks=ranks,
        num_nodes=nodes,
        gcds_per_card=gcds_per_card,
        gpu_freq_mhz=1700.0,
        num_steps=10,
        particles_per_rank=1e6,
        app_start=0.0,
        app_end=20.0,
        records=records,
        node_windows=windows,
    )


class TestAttribution:
    def test_sharing_factors(self):
        run = make_run()
        assert sensor_sharing_factor(run, "gpu") == 2
        assert sensor_sharing_factor(run, "cpu") == 4
        assert sensor_sharing_factor(run, "node") == 4

    def test_unknown_counter(self):
        with pytest.raises(AnalysisError):
            sensor_sharing_factor(make_run(), "nic")

    def test_gpu_attribution_divides_by_gcds(self):
        run = make_run()
        rec = run.record(0, "MomentumEnergy")
        assert attributed_joules(run, rec, "gpu") == pytest.approx(1000.0)

    def test_cpu_attribution_divides_by_ranks(self):
        run = make_run()
        rec = run.record(0, "MomentumEnergy")
        assert attributed_joules(run, rec, "cpu") == pytest.approx(100.0)

    def test_missing_counter(self):
        run = make_run(memory=False)
        rec = run.record(0, "MomentumEnergy")
        with pytest.raises(AnalysisError):
            attributed_joules(run, rec, "memory")

    def test_function_totals_sum_once(self):
        """Attributed sums reproduce the physical total exactly once."""
        run = make_run()
        totals = function_totals(run, "gpu")
        # 4 ranks * 2000 J raw, 2 ranks per card sensor -> 4000 J physical.
        assert totals["MomentumEnergy"] == pytest.approx(4000.0)

    def test_memory_totals_skip_absent_platform(self):
        run = make_run(memory=False)
        assert function_totals(run, "memory") == {}


class TestDeviceBreakdown:
    def test_categories_with_memory(self):
        bd = device_breakdown(make_run())
        assert list(bd.joules) == ["GPU", "CPU", "Memory", "Other"]
        assert bd.joules["GPU"] == pytest.approx(6200.0)
        assert bd.joules["Other"] == pytest.approx(10000 - 6200 - 1500 - 500)
        assert bd.total_joules == pytest.approx(10000.0)

    def test_memory_folded_into_other_when_unmeasured(self):
        bd = device_breakdown(make_run(memory=False))
        assert "Memory" not in bd.joules
        assert bd.joules["Other"] == pytest.approx(10000 - 6200 - 1500)

    def test_shares_sum_to_one(self):
        bd = device_breakdown(make_run())
        assert sum(bd.shares.values()) == pytest.approx(1.0)

    def test_empty_run_rejected(self):
        run = make_run()
        run.node_windows.clear()
        with pytest.raises(AnalysisError):
            device_breakdown(run)

    def test_zero_total_rejected(self):
        bd = DeviceBreakdown(joules={"GPU": 0.0}, total_joules=0.0)
        with pytest.raises(AnalysisError):
            bd.shares


class TestFunctionBreakdown:
    def test_sorted_by_energy(self):
        rows = function_breakdown(make_run(), "gpu")
        assert rows[0].function == "MomentumEnergy"
        assert rows[0].joules > rows[1].joules

    def test_attributed_values(self):
        rows = function_breakdown(make_run(), "gpu")
        assert rows[0].joules == pytest.approx(4000.0)
        assert rows[0].seconds == pytest.approx(10.0)


class TestEdp:
    def test_edp_product(self):
        assert edp(100.0, 2.0) == 200.0

    def test_edp_rejects_negative(self):
        with pytest.raises(AnalysisError):
            edp(-1.0, 2.0)

    def test_run_edp_uses_gpu_energy_and_time(self):
        run = make_run()
        # gpu totals: ME 4000 + Density 1600 = 5600 J, app window 20 s.
        assert run_edp(run) == pytest.approx(5600.0 * 20.0)

    def test_function_edp(self):
        values = function_edp(make_run())
        assert values["MomentumEnergy"] == pytest.approx(4000.0 * 10.0)

    def test_normalized_series(self):
        series = {1410.0: 100.0, 1200.0: 90.0, 1005.0: 80.0}
        norm = normalized_edp_series(series, 1410.0)
        assert norm[1410.0] == 1.0
        assert norm[1005.0] == pytest.approx(0.8)

    def test_normalized_missing_baseline(self):
        with pytest.raises(AnalysisError):
            normalized_edp_series({1200.0: 1.0}, 1410.0)


class TestValidation:
    def make_accounting(self, consumed):
        return JobAccounting(
            job_id=1,
            name="j",
            num_nodes=1,
            num_ranks=4,
            submit_time=0.0,
            start_time=0.0,
            app_start_time=30.0,
            app_end_time=50.0,
            end_time=55.0,
            consumed_energy_joules=consumed,
        )

    def test_pmt_total(self):
        assert pmt_total_joules(make_run()) == pytest.approx(10000.0)

    def test_validation_point(self):
        point = validate_pmt_against_slurm(make_run(), self.make_accounting(12500.0), 8)
        assert point.ratio == pytest.approx(0.8)
        assert point.gap_joules == pytest.approx(2500.0)
        assert point.num_cards == 8

    def test_zero_slurm_rejected(self):
        point = validate_pmt_against_slurm(make_run(), self.make_accounting(0.0), 8)
        with pytest.raises(AnalysisError):
            point.ratio
