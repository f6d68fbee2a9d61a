"""Tests for the A/B comparison report."""

import pytest

from repro.analysis.compare import (
    compare_runs,
    comparison_report,
    optimization_targets,
)
from repro.config import CSCS_A100, LUMI_G, SUBSONIC_TURBULENCE
from repro.errors import AnalysisError
from repro.experiments.runner import run_scaled_experiment


@pytest.fixture(scope="module")
def two_system_runs():
    cscs = run_scaled_experiment(CSCS_A100, SUBSONIC_TURBULENCE, 8, num_steps=5)
    lumi = run_scaled_experiment(LUMI_G, SUBSONIC_TURBULENCE, 8, num_steps=5)
    return cscs.run, lumi.run


class TestCompareRuns:
    def test_momentum_energy_is_worst_on_amd(self, two_system_runs):
        """The automated Figure 3 inference: per-particle MomentumEnergy
        energy is much higher on the MI250X than on the A100."""
        cscs, lumi = two_system_runs
        deltas = compare_runs(cscs, lumi, "gpu")
        by_name = {d.function: d for d in deltas}
        me = by_name["MomentumEnergy"]
        assert me.energy_ratio > 1.5
        # And it tops (or nearly tops) the worst-regression ranking.
        assert deltas[0].function in ("MomentumEnergy", "IADVelocityDivCurl")

    def test_targets_identified(self, two_system_runs):
        cscs, lumi = two_system_runs
        deltas = compare_runs(cscs, lumi, "gpu")
        targets = optimization_targets(deltas)
        assert "MomentumEnergy" in targets
        # Cheap functions never become targets regardless of ratio.
        assert "EquationOfState" not in targets

    def test_self_comparison_is_flat(self, two_system_runs):
        cscs, _ = two_system_runs
        deltas = compare_runs(cscs, cscs, "gpu")
        for d in deltas:
            assert d.energy_ratio == pytest.approx(1.0)
        assert optimization_targets(deltas) == []

    def test_report_text(self, two_system_runs):
        cscs, lumi = two_system_runs
        text = comparison_report(cscs, lumi, "gpu")
        assert "LUMI-G" in text and "CSCS-A100" in text
        assert "Optimization targets" in text
        assert "MomentumEnergy" in text

    def test_zero_work_rejected(self, two_system_runs):
        cscs, _ = two_system_runs
        # Build a broken copy through the measurement-file codec.
        import json

        payload = json.loads(cscs.to_json())
        payload["particles_per_rank"] = 0.0
        from repro.instrumentation import RunMeasurements

        broken = RunMeasurements.from_json(json.dumps(payload))
        with pytest.raises(AnalysisError):
            compare_runs(broken, cscs)

