"""Tests for the energy-accounting audit layer.

Covers the typed findings, the tolerance sets, the pure invariant
checkers, the runtime ``EnergyAuditor`` hooks, audited end-to-end runs of
the three paper systems, audited campaigns, and the fault-injection
property: a sabotaged sensor either passes the auditor (the resilient
layer genuinely recovered the energy) or produces typed findings — never
a silent imbalance.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.audit import (
    AUDIT_ENV,
    INVARIANTS,
    AuditFinding,
    AuditReport,
    AuditSettings,
    AuditTolerances,
    EnergyAuditor,
    audit_campaign_result,
    check_device_partition,
    check_function_partition,
    check_pmt_vs_slurm,
    tolerances_for,
)
from repro.config import SYSTEMS, TEST_CASES
from repro.errors import AuditError
from repro.experiments.runner import run_scaled_experiment
from repro.timeseries import TimeseriesCollector

CASE = TEST_CASES["Subsonic Turbulence"]


def run_audited(system_name, *, num_steps=8, **kwargs):
    system = SYSTEMS[system_name]
    kwargs.setdefault("audit", True)
    return run_scaled_experiment(
        system,
        CASE,
        system.node_spec.num_cards,
        num_steps=num_steps,
        **kwargs,
    )


class TestAuditFinding:
    def test_round_trip(self):
        f = AuditFinding(
            invariant="device-partition",
            scope="node 0",
            message="m",
            measured=2.0,
            expected=1.0,
            tolerance=0.02,
        )
        assert AuditFinding.from_dict(json.loads(json.dumps(f.to_dict()))) == f

    def test_unknown_invariant_rejected(self):
        with pytest.raises(ValueError):
            AuditFinding(invariant="made-up", scope="x", message="m")

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            AuditFinding(
                invariant="tick-order", scope="x", message="m", severity="fatal"
            )

    def test_render_carries_numbers(self):
        f = AuditFinding(
            invariant="pmt-vs-slurm",
            scope="run",
            message="too low",
            measured=0.4,
            expected=0.85,
            tolerance=0.85,
        )
        line = f.render()
        assert "pmt-vs-slurm" in line and "0.4" in line and "0.85" in line


class TestAuditReport:
    def test_empty_report_is_not_clean(self):
        report = AuditReport()
        assert report.ok  # no errors...
        assert "no checks ran" in report.render()  # ...but says so

    def test_ok_ignores_warnings(self):
        report = AuditReport(
            findings=(
                AuditFinding(
                    invariant="counter-monotone",
                    scope="n",
                    message="m",
                    severity="warning",
                ),
            ),
            checks={"counter-monotone": 3},
        )
        assert report.ok
        assert len(report.warnings) == 1 and not report.errors

    def test_round_trip(self):
        report = AuditReport(
            findings=(
                AuditFinding(invariant="tick-order", scope="n", message="m"),
            ),
            checks={"tick-order": 2},
        )
        restored = AuditReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert restored == report

    def test_render_lists_findings(self):
        report = AuditReport(
            findings=(
                AuditFinding(invariant="tick-order", scope="n", message="oops"),
            ),
            checks={"tick-order": 2},
        )
        text = report.render()
        assert "1 errors" in text and "oops" in text


class TestTolerances:
    def test_paper_systems_have_calibrated_floors(self):
        for name in ("LUMI-G", "CSCS-A100", "miniHPC"):
            tol = tolerances_for(name)
            assert 0.0 < tol.pmt_slurm_ratio_min < 1.0

    def test_lumi_floor_is_loosest(self):
        # LUMI-G's launch/teardown gap is the largest of the three.
        assert (
            tolerances_for("LUMI-G").pmt_slurm_ratio_min
            < tolerances_for("CSCS-A100").pmt_slurm_ratio_min
        )

    def test_unknown_system_gets_defaults(self):
        assert tolerances_for("whatever") == AuditTolerances()
        assert tolerances_for(None) == AuditTolerances()

    def test_strictened(self):
        tight = replace(AuditTolerances(), counter_slack_joules=0.0)
        assert tight.counter_slack_joules == 0.0
        assert tight.device_partition_max_excess == (
            AuditTolerances().device_partition_max_excess
        )


class TestAuditSettings:
    def test_env_off_by_default(self, monkeypatch):
        monkeypatch.delenv(AUDIT_ENV, raising=False)
        assert AuditSettings.from_env() == AuditSettings()

    @pytest.mark.parametrize("value", ["1", "record", "on", "true"])
    def test_env_record(self, monkeypatch, value):
        monkeypatch.setenv(AUDIT_ENV, value)
        assert AuditSettings.from_env() == AuditSettings(enabled=True)

    def test_env_strict(self, monkeypatch):
        monkeypatch.setenv(AUDIT_ENV, "strict")
        assert AuditSettings.from_env() == AuditSettings(
            enabled=True, strict=True
        )

    def test_resolve_overrides_env(self, monkeypatch):
        monkeypatch.setenv(AUDIT_ENV, "strict")
        assert AuditSettings.resolve(False) == AuditSettings()
        assert AuditSettings.resolve(True) == AuditSettings(enabled=True)
        assert AuditSettings.resolve(None).strict

    def test_resolve_strict_string(self, monkeypatch):
        monkeypatch.delenv(AUDIT_ENV, raising=False)
        assert AuditSettings.resolve("strict") == AuditSettings(
            enabled=True, strict=True
        )


class TestRuntimeHooks:
    def test_counter_monotone_violation(self):
        auditor = EnergyAuditor()
        auditor.on_counters(0, 1.0, {"cpu": 100.0})
        auditor.on_counters(0, 2.0, {"cpu": 50.0})
        assert [f.invariant for f in auditor.findings] == ["counter-monotone"]

    def test_counter_slack_tolerated(self):
        auditor = EnergyAuditor()
        auditor.on_counters(0, 1.0, {"cpu": 100.0})
        auditor.on_counters(0, 2.0, {"cpu": 99.5})  # within 1 J slack
        assert not auditor.findings

    def test_region_negative_delta(self):
        auditor = EnergyAuditor()
        auditor.on_region(3, "Density", 1.0, 2.0, {"gpu": -50.0})
        (finding,) = auditor.findings
        assert finding.invariant == "region-window"
        assert "rank 3" in finding.scope

    def test_region_reversed_window(self):
        auditor = EnergyAuditor()
        auditor.on_region(0, "IAD", 5.0, 4.0, {})
        assert auditor.findings[0].invariant == "region-window"

    def test_strict_raises_typed(self):
        auditor = EnergyAuditor(strict=True)
        auditor.on_counters(0, 1.0, {"cpu": 100.0})
        with pytest.raises(AuditError) as err:
            auditor.on_counters(0, 2.0, {"cpu": 10.0})
        assert isinstance(err.value.finding, AuditFinding)
        assert err.value.finding.invariant == "counter-monotone"

    def test_report_counts_checks(self):
        auditor = EnergyAuditor()
        auditor.on_counters(0, 1.0, {"cpu": 1.0, "node": 2.0})
        report = auditor.report()
        assert report.checks["counter-monotone"] == 2
        assert report.ok


class TestInvariantCheckers:
    @pytest.fixture(scope="class")
    def clean_run(self):
        return run_audited("CSCS-A100").run

    def test_clean_run_balances(self, clean_run):
        assert not check_function_partition(clean_run)
        assert not check_device_partition(clean_run)

    def test_device_overcount_detected(self, clean_run):
        import copy

        broken = copy.deepcopy(clean_run)
        broken.node_windows[0].node_joules /= 10.0
        findings = check_device_partition(broken)
        assert any(f.invariant == "device-partition" for f in findings)

    def test_negative_window_detected(self, clean_run):
        import copy

        broken = copy.deepcopy(clean_run)
        broken.node_windows[0].cpu_joules = -100.0
        findings = check_device_partition(broken)
        assert any(f.invariant == "counter-monotone" for f in findings)

    def test_function_double_count_detected(self, clean_run):
        import copy

        broken = copy.deepcopy(clean_run)
        for record in broken.records:
            for name in record.joules:
                record.joules[name] *= 3.0
        findings = check_function_partition(broken)
        assert any(
            f.invariant == "function-partition" and "double" in f.message
            for f in findings
        )

    def test_function_lost_energy_detected(self, clean_run):
        import copy

        broken = copy.deepcopy(clean_run)
        for record in broken.records:
            for name in record.joules:
                record.joules[name] *= 0.2
        findings = check_function_partition(broken)
        assert any(
            f.invariant == "function-partition" and "lost" in f.message
            for f in findings
        )

    def test_nonpositive_slurm_detected(self, clean_run):
        class FakeAccounting:
            consumed_energy_joules = 0.0
            start_time = 0.0
            end_time = 10.0

        findings = check_pmt_vs_slurm(clean_run, FakeAccounting())
        assert findings and findings[0].invariant == "pmt-vs-slurm"

    def test_pmt_exceeding_slurm_detected(self, clean_run):
        class FakeAccounting:
            consumed_energy_joules = 1.0  # absurdly low
            start_time = clean_run.app_start
            end_time = clean_run.app_end

        findings = check_pmt_vs_slurm(clean_run, FakeAccounting())
        assert any(
            "exceeds" in f.message and f.invariant == "pmt-vs-slurm"
            for f in findings
        )

    def test_ratio_floor_gated_on_window_fraction(self, clean_run):
        from repro.analysis.validation import pmt_total_joules

        pmt = pmt_total_joules(clean_run)

        class Dominated:
            # Window covers the whole job, PMT far below Slurm: floor fires.
            consumed_energy_joules = pmt * 10.0
            start_time = clean_run.app_start
            end_time = clean_run.app_end

        class OverheadRun(Dominated):
            # Same energies, but the job is mostly launch/teardown: no floor.
            start_time = clean_run.app_start - 100 * clean_run.app_seconds
            end_time = clean_run.app_end + 100 * clean_run.app_seconds

        tol = tolerances_for("CSCS-A100")
        assert any(
            "floor" in f.message
            for f in check_pmt_vs_slurm(clean_run, Dominated(), tol)
        )
        assert not check_pmt_vs_slurm(clean_run, OverheadRun(), tol)


class TestAuditedExperiments:
    @pytest.mark.parametrize("system", ["LUMI-G", "CSCS-A100", "miniHPC"])
    def test_strict_run_is_clean(self, system):
        result = run_audited(
            system,
            audit="strict",
            power_sample_interval_s=1.0,
            collector=TimeseriesCollector(),
        )
        report = result.audit
        assert report.ok and not report.findings
        # Every invariant family actually ran.
        for invariant in INVARIANTS:
            assert report.checks.get(invariant, 0) > 0, invariant

    def test_audit_off_by_default(self, monkeypatch):
        monkeypatch.delenv(AUDIT_ENV, raising=False)
        result = run_audited("miniHPC", num_steps=2, audit=None)
        assert result.audit is None

    def test_audit_via_env(self, monkeypatch):
        monkeypatch.setenv(AUDIT_ENV, "record")
        result = run_audited("miniHPC", num_steps=2, audit=None)
        assert isinstance(result.audit, AuditReport)

    def test_audited_energies_identical(self):
        plain = run_audited("CSCS-A100", audit=False)
        audited = run_audited("CSCS-A100", audit="strict")
        assert plain.run.to_json() == audited.run.to_json()

    def test_injected_fault_produces_typed_findings(self):
        result = run_audited(
            "CSCS-A100",
            num_steps=10,
            resilient=False,
            inject_fault="freeze",
            fault_target="node",
            fault_kwargs={"freeze_at": 80.0},
        )
        report = result.audit
        assert not report.ok
        assert all(isinstance(f, AuditFinding) for f in report.findings)
        assert any(
            f.invariant == "device-partition" for f in report.findings
        )

    def test_strict_mode_raises_on_injected_fault(self):
        with pytest.raises(AuditError) as err:
            run_audited(
                "CSCS-A100",
                num_steps=10,
                audit="strict",
                resilient=False,
                inject_fault="freeze",
                fault_target="node",
                fault_kwargs={"freeze_at": 80.0},
            )
        assert err.value.finding.invariant in INVARIANTS


class TestCampaignAudit:
    def test_post_hoc_audit_of_campaign_results(self, tmp_path):
        from repro.campaign import ResultStore, execute, expand
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec(
            name="audit-smoke",
            systems=("miniHPC",),
            test_cases=("Subsonic Turbulence",),
            card_counts=(2,),
            num_steps=4,
        )
        keys = expand(spec)
        store = ResultStore(str(tmp_path))
        results, stats = execute(keys, store=store, audit=True)
        assert stats.audit_reports is not None
        assert stats.audit_findings == 0
        assert stats.audit_checks > 0
        # Cache hits are audited too (post-hoc, from serialized records).
        _, stats2 = execute(keys, store=store, audit="strict")
        assert stats2.hits == len(keys)
        assert stats2.audit_reports is not None
        assert stats2.audit_findings == 0

    def test_audit_campaign_result_round_trips_store(self, tmp_path):
        from repro.campaign import ResultStore, execute, expand
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec(
            name="audit-smoke-2",
            systems=("miniHPC",),
            test_cases=("Subsonic Turbulence",),
            card_counts=(2,),
            num_steps=4,
        )
        keys = expand(spec)
        store = ResultStore(str(tmp_path))
        results, _ = execute(keys, store=store)
        report = audit_campaign_result(results[keys[0]])
        assert isinstance(report, AuditReport)
        assert report.ok


#: Fault matrix: every backend family the sensors expose.
_FAULT_POINTS = [
    ("LUMI-G", "node"),    # cray pm_counters node file
    ("LUMI-G", "cpu"),     # cray pm_counters cpu file
    ("LUMI-G", "gpu0"),    # cray accel counter
    ("LUMI-G", "rocm0"),   # ROCm hwmon register
    ("CSCS-A100", "node"), # IPMI node sensor (composite window source)
    ("CSCS-A100", "cpu"),  # RAPL package
    ("CSCS-A100", "gpu0"), # NVML device
    ("miniHPC", "gpu0"),   # NVML on the 4-card system
]


class TestFaultInjectionProperty:
    @given(
        point=st.sampled_from(_FAULT_POINTS),
        kind=st.sampled_from(["freeze", "dropout", "glitch"]),
        start=st.floats(min_value=0.0, max_value=120.0),
    )
    @settings(max_examples=12, deadline=None)
    def test_no_silent_imbalance(self, point, kind, start):
        """A sabotaged sensor never corrupts the books silently.

        Under the resilient layer the run must complete, and the audit
        either passes (the mitigation recovered the energy) or explains
        itself through typed findings.
        """
        system, target = point
        fault_kwargs = {
            "freeze": {"freeze_at": start},
            "dropout": {"outage_start": start, "outage_end": start + 20.0},
            "glitch": {"probability": 0.1, "seed": int(start)},
        }[kind]
        result = run_audited(
            system,
            num_steps=4,
            inject_fault=kind,
            fault_target=target,
            fault_kwargs=fault_kwargs,
        )
        report = result.audit
        assert isinstance(report, AuditReport)
        assert report.checks_run > 0
        for finding in report.findings:
            assert isinstance(finding, AuditFinding)
            assert finding.invariant in INVARIANTS
        if not report.ok:
            assert report.errors  # non-ok always carries typed evidence
