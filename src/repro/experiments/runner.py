"""One-stop experiment runner: cluster + Slurm + instrumented scaled run.

Assembles the full stack for one job — simulated cluster of the requested
size, per-node telemetry, rank placement, Slurm controller with energy
accounting, PMT profiler, performance model — runs the instrumented
application inside the Slurm job lifecycle, and returns both views of the
energy (Slurm accounting and PMT measurements).

It is the only place that assembles this stack: static runs, runs under
the online governor and runs of an offline per-function clock table are
all measured in the same context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.config import SystemConfig, TestCaseConfig
from repro.hardware.cluster import Cluster
from repro.hardware.clock import VirtualClock
from repro.instrumentation.profiler import EnergyProfiler
from repro.instrumentation.records import RunMeasurements
from repro.mpi.costmodel import CommCostModel
from repro.mpi.engine import SpmdEngine
from repro.mpi.mapping import RankPlacement
from repro.sensors.telemetry import NodeTelemetry
from repro.slurm.job import JobAccounting, JobDescriptor
from repro.slurm.scheduler import SlurmController
from repro.sph.perfmodel import SphPerformanceModel
from repro.sph.propagator import GRAVITY_FUNCTIONS, TURBULENCE_FUNCTIONS
from repro.sph.scaled import ScaledSphApplication
from repro.units import mhz


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one experiment produced."""

    system: SystemConfig
    test_case: TestCaseConfig
    num_cards: int
    gpu_freq_mhz: float
    accounting: JobAccounting
    run: RunMeasurements
    #: Per-node PMT samplers (power profiles), when sampling was requested.
    power_samplers: tuple = ()
    #: Retained telemetry timeline (when a collector was given).
    timeseries: object | None = None
    #: :class:`~repro.audit.findings.AuditReport` when auditing was on.
    audit: object | None = None
    #: :class:`~repro.tuning.governor.GovernorReport` for governed and
    #: clock-table runs.
    governor: object | None = None


def functions_for(test_case: TestCaseConfig) -> tuple[str, ...]:
    """The propagator function sequence of a test case."""
    if test_case.has_gravity:
        return GRAVITY_FUNCTIONS
    if test_case.has_driving:
        return TURBULENCE_FUNCTIONS
    from repro.sph.propagator import HYDRO_FUNCTIONS

    return HYDRO_FUNCTIONS


def _node_meter(telemetry, resilient: bool = True):
    """A whole-node PMT meter: cray where available, else a composite of
    the NVML devices plus the RAPL package.

    With ``resilient`` (the default), every leaf meter is wrapped in the
    degradation-ladder backend so the composite sums extrapolated child
    values instead of aborting when one sensor fails mid-run; the
    composite's own per-child isolation remains the backstop for children
    that fail before their first good read.
    """
    import repro.pmt as pmt
    from repro.sensors.resilient import GLITCH_MARGIN

    spec = telemetry.node.spec
    if telemetry.pm_counters is not None:
        meter = pmt.create("cray", telemetry=telemetry)
        if resilient:
            meter = pmt.create(
                "resilient",
                inner=meter,
                label="cray",
                plausible_max_watts=GLITCH_MARGIN * spec.peak_watts,
            )
        return meter
    card_bound = GLITCH_MARGIN * spec.card_peak_watts
    children = {
        f"gpu{i}": pmt.create("nvml", telemetry=telemetry, device_index=i)
        for i in range(len(telemetry.nvml))
    }
    children["cpu"] = pmt.create("rapl", telemetry=telemetry)
    if resilient:
        # The RAPL child gets no glitch bound: its watts are derived by
        # differencing energy reads and legitimately alias above any
        # physical ceiling at sub-refresh read spacing.
        bounds: dict[str, float | None] = {name: card_bound for name in children}
        bounds["cpu"] = None
        children = {
            name: pmt.create(
                "resilient",
                inner=child,
                label=name,
                plausible_max_watts=bounds[name],
            )
            for name, child in children.items()
        }
    return pmt.create("composite", meters=children)


def run_scaled_experiment(
    system: SystemConfig,
    test_case: TestCaseConfig,
    num_cards: int,
    gpu_freq_mhz: float | None = None,
    num_steps: int | None = None,
    particles_per_rank: float | None = None,
    seed: int = 0,
    privileged_dvfs: bool = False,
    power_sample_interval_s: float | None = None,
    resilient: bool = True,
    inject_fault: str | None = None,
    fault_target: str = "gpu0",
    fault_node: int = 0,
    fault_kwargs: dict | None = None,
    collector=None,
    audit: bool | str | None = None,
    governor=None,
) -> ExperimentResult:
    """Run one paper-scale instrumented job.

    ``gpu_freq_mhz`` requests a frequency change before the run; on
    systems whose GPU frequency is not user controllable this raises
    (as on the real LUMI-G / CSCS-A100) unless ``privileged_dvfs`` is set.

    ``resilient`` (default) runs the measurement pipeline through the
    fault-tolerant layer; ``inject_fault`` breaks one sensor
    (``freeze``/``dropout``/``glitch``, see :mod:`repro.sensors.inject`)
    of node ``fault_node`` at ``fault_target`` before the job starts —
    the fault-injection ablation measures the attribution error this
    causes under the resilient layer.  ``fault_kwargs`` forwards timing
    parameters (``freeze_at``, ``outage_start``/``outage_end``,
    ``probability``/``magnitude_watts``/``seed``) to the fault wrapper,
    e.g. to place the fault inside the instrumented window.

    A ``collector`` (a
    :class:`~repro.timeseries.collect.TimeseriesCollector`) retains the
    full telemetry timeline: one per-node sampler streams every tick
    into the collector's store, and the profiler's region marks are
    recorded as spans.  The collector's samplers own *separate* meter
    and telemetry-counter instances (same ground-truth traces and noise
    seeds), so measured per-region energies are bit-identical with the
    collector on or off.  The sampling period defaults to
    ``power_sample_interval_s`` (or 1 s when unset).

    ``audit`` attaches an :class:`~repro.audit.hooks.EnergyAuditor` to
    the whole stack: ``True``/``"record"`` records invariant violations
    into ``ExperimentResult.audit``, ``"strict"`` raises
    :class:`~repro.errors.AuditError` on the first error-severity
    finding, ``None`` (default) defers to the ``REPRO_AUDIT``
    environment variable, ``False`` forces auditing off.  The auditor
    only observes values the pipeline already read, so audited energies
    are bit-identical to unaudited ones.

    ``governor`` re-clocks the GPUs at function boundaries through the
    dynamic-DVFS application.  It is either the online governor — a
    policy name (``min-energy``/``min-edp``/``power-cap``, resolved with
    the system defaults) or a full
    :class:`~repro.tuning.governor.GovernorConfig` — or an offline clock
    table, a mapping function -> MHz such as the tuning oracle builds.
    The governor taps the profiler's region completions and the per-node
    sampler tick stream, and switches with site privileges (it models a
    system-operated runtime service — the one entity that owns the
    clocks on LUMI-G/CSCS-A100).  A table run starts at ``gpu_freq_mhz``
    and switches with ``privileged_dvfs``; a function missing from the
    table keeps the running clock, and no sampler or region listener is
    attached.  Either way the outcome lands in
    ``ExperimentResult.governor`` (a table reports as policy
    ``"oracle"`` with its switch count).
    """
    from repro.audit.hooks import AuditSettings, EnergyAuditor

    audit_settings = AuditSettings.resolve(audit)
    auditor = (
        EnergyAuditor(system=system, strict=audit_settings.strict)
        if audit_settings.enabled
        else None
    )
    governor_obj = None
    clock_table = None
    if isinstance(governor, Mapping):
        clock_table = dict(governor)
    elif governor is not None:
        from repro.tuning.governor import EnergyAwareGovernor, GovernorConfig

        gov_config = (
            GovernorConfig.for_system(governor, system, seed=seed)
            if isinstance(governor, str)
            else governor
        )
        governor_obj = EnergyAwareGovernor(
            gov_config,
            system.node_spec.gpu.supported_freqs_hz,
            nominal_mhz=(
                gpu_freq_mhz
                if gpu_freq_mhz is not None
                else system.node_spec.gpu.nominal_freq_hz / 1e6
            ),
        )
    num_nodes = system.nodes_for_cards(num_cards)
    clock = VirtualClock()
    cluster = Cluster(
        system.name.lower(), clock, system.node_spec, num_nodes, system.network
    )
    if governor_obj is not None:
        # The governor owns the clocks (a site-level service): the run
        # starts at its preferred clock, privileged like its switches.
        cluster.set_gpu_frequency(mhz(governor_obj.default_mhz), privileged=True)
    elif gpu_freq_mhz is not None:
        cluster.set_gpu_frequency(mhz(gpu_freq_mhz), privileged=privileged_dvfs)

    telemetries = [
        NodeTelemetry(node, system, clock, seed=seed + i)
        for i, node in enumerate(cluster.nodes)
    ]
    if inject_fault is not None:
        from repro.sensors.inject import inject_fault as install_fault

        install_fault(
            telemetries[fault_node],
            inject_fault,
            fault_target,
            **(fault_kwargs or {}),
        )
    placement = RankPlacement(cluster)
    engine = SpmdEngine(placement)
    cost_model = CommCostModel(system.network, placement)

    n_per_rank = (
        particles_per_rank
        if particles_per_rank is not None
        else test_case.particles_per_gpu
    )
    steps = num_steps if num_steps is not None else test_case.num_steps

    perfmodel = SphPerformanceModel(cost_model, n_per_rank, seed=seed)
    profiler = EnergyProfiler(placement, telemetries, system, resilient=resilient)
    if collector is not None:
        profiler.span_recorder = collector.spans
    profiler.auditor = auditor
    if governor_obj is not None or clock_table is not None:
        from repro.tuning.dynamic import DynamicDvfsApplication

        if governor_obj is not None:
            profiler.region_listener = governor_obj.observe_region
            clock_for, privileged = governor_obj.frequency_for, True
        else:
            clock_for, privileged = clock_table.get, privileged_dvfs
        app: ScaledSphApplication = DynamicDvfsApplication(
            engine=engine,
            profiler=profiler,
            perfmodel=perfmodel,
            functions=functions_for(test_case),
            num_steps=steps,
            test_case_name=test_case.name,
            clock_for=clock_for,
            privileged=privileged,
        )
    else:
        app = ScaledSphApplication(
            engine=engine,
            profiler=profiler,
            perfmodel=perfmodel,
            functions=functions_for(test_case),
            num_steps=steps,
            test_case_name=test_case.name,
        )

    samplers = ()
    if (
        power_sample_interval_s is not None
        or collector is not None
        or governor_obj is not None
    ):
        from repro.pmt.sampler import PmtSampler

        interval = (
            power_sample_interval_s if power_sample_interval_s is not None else 1.0
        )
        sampled_telemetries = telemetries
        if collector is not None or governor_obj is not None:
            # The collector's samplers read *replica* telemetry: separate
            # counter instances over the same ground-truth traces and noise
            # seeds.  Sensor counters extend their cached integral lazily at
            # read time, so an extra observer on the shared instances would
            # re-chunk that accumulation and shift profiler readings in the
            # last bit; replicas keep measured per-region energies
            # bit-identical with the collector on or off.
            sampled_telemetries = [
                NodeTelemetry(node, system, clock, seed=seed + i)
                for i, node in enumerate(cluster.nodes)
            ]
            if inject_fault is not None:
                install_fault(
                    sampled_telemetries[fault_node],
                    inject_fault,
                    fault_target,
                    **(fault_kwargs or {}),
                )
        samplers = tuple(
            PmtSampler(
                _node_meter(tel, resilient=resilient),
                interval_s=interval,
            )
            for tel in sampled_telemetries
        )
        if collector is not None:
            for node_index, sampler in enumerate(samplers):
                collector.attach(node_index, sampler)
        if governor_obj is not None:
            from functools import partial

            for node_index, sampler in enumerate(samplers):
                sampler.add_listener(
                    partial(governor_obj.on_tick, node_index)
                )
        if auditor is not None:
            for node_index, sampler in enumerate(samplers):
                auditor.watch_sampler(node_index, sampler)
        for sampler in samplers:
            sampler.start()

    controller = SlurmController(engine, telemetries, system)
    job = JobDescriptor(
        name=f"{test_case.name.replace(' ', '-').lower()}-{num_cards}c",
        num_nodes=num_nodes,
        particles_per_rank=n_per_rank,
    )
    accounting = controller.run_job(job, app.run)
    run: RunMeasurements = accounting.app_result

    for sampler in samplers:
        sampler.stop()

    audit_report = None
    if auditor is not None:
        auditor.audit_run(run)
        auditor.audit_accounting(run, accounting)
        if collector is not None:
            auditor.audit_store(collector.store)
        audit_report = auditor.report()

    governor_report = None
    if governor_obj is not None:
        governor_report = governor_obj.report(switches=app.switch_count)
    elif clock_table is not None:
        from repro.tuning.governor import GovernorReport

        governor_report = GovernorReport(
            policy="oracle",
            decisions=0,
            switches=app.switch_count,
            clock_table=clock_table,
        )

    return ExperimentResult(
        system=system,
        test_case=test_case,
        num_cards=num_cards,
        gpu_freq_mhz=run.gpu_freq_mhz,
        accounting=accounting,
        run=run,
        power_samplers=samplers,
        timeseries=collector,
        audit=audit_report,
        governor=governor_report,
    )
