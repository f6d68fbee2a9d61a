"""Command-line interface: ``python -m repro <command>``.

One subcommand per paper artifact and tool; ``python -m repro --help``
lists them and ``python -m repro <command> --help`` gives each one's
options.  Reduced ``--steps`` make every command laptop-quick; the
defaults match the paper's 100-step runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.validation import validate_pmt_against_slurm
from repro.config import (
    DEFAULT_CAMPAIGN,
    GOVERNOR_POLICIES,
    OBSERVABILITY_CASES,
    SYSTEMS,
    TEST_CASES,
    get_system,
)
from repro.errors import ReproError


def _add_steps(parser: argparse.ArgumentParser, default: int = 100) -> None:
    parser.add_argument(
        "--steps",
        type=int,
        default=default,
        help=f"time-steps per run (paper: 100; default {default})",
    )


def _add_freqs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--freqs", nargs="+", type=float, default=[1410.0, 1230.0, 1005.0]
    )


def _add_run_options(
    parser: argparse.ArgumentParser,
    cases=OBSERVABILITY_CASES,
    default_case: str = "Sedov Blast",
    interval: bool = True,
) -> None:
    """The ``--system/--case/--cards[/--interval]`` block of one run."""
    parser.add_argument("--system", default="CSCS-A100", choices=sorted(SYSTEMS))
    parser.add_argument("--case", default=default_case, choices=sorted(cases))
    parser.add_argument("--cards", type=int, default=8)
    if interval:
        parser.add_argument(
            "--interval",
            type=float,
            default=None,
            help="sampling period in simulated seconds (default 1.0)",
        )


def _add_governor(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument(
        "--governor", default=None, choices=GOVERNOR_POLICIES, help=help
    )


def _add_audit(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--audit",
        action="store_true",
        help="check energy-accounting invariants and report findings",
    )
    parser.add_argument(
        "--audit-strict",
        action="store_true",
        help="like --audit, but abort on the first broken invariant",
    )


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments import table1_text

    print(table1_text())
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    import repro.pmt as pmt

    for name in pmt.available_backends():
        print(name)
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    all_series: dict[str, dict[float, float]] = {}
    for name in args.systems:
        args.system = name
        points = _print_sweep(args)
        print()
        all_series[f"{name} PMT"] = {
            float(p.num_cards): p.pmt_joules / 1e6 for p in points
        }
        all_series[f"{name} Slurm"] = {
            float(p.num_cards): p.slurm_joules / 1e6 for p in points
        }
    if args.plot:
        from repro.analysis.ascii_plot import line_chart

        print(line_chart(all_series, y_label="energy [MJ] vs GPU cards"))
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    from repro.experiments.breakdowns import figure2_breakdowns
    from repro.units import joules_to_megajoules

    cells = figure2_breakdowns(num_cards=args.cards, num_steps=args.steps)
    header = f"{'Run':>16} {'Total [MJ]':>11} " + " ".join(
        f"{k:>8}" for k in ("GPU", "CPU", "Memory", "Other")
    )
    print(header)
    for cell in cells:
        shares = cell.devices.shares
        print(
            f"{cell.label:>16} "
            f"{joules_to_megajoules(cell.devices.total_joules):>11.2f} "
            f"{shares['GPU']:>8.1%} {shares['CPU']:>8.1%} "
            f"{shares.get('Memory', 0.0):>8.1%} {shares['Other']:>8.1%}"
        )
    if args.plot:
        from repro.analysis.ascii_plot import share_bars

        for cell in cells:
            print(f"\n{cell.label}:")
            print(share_bars(cell.devices.shares))
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro.experiments.breakdowns import figure2_breakdowns
    from repro.units import joules_to_megajoules

    cells = figure2_breakdowns(num_cards=args.cards, num_steps=args.steps)
    for cell in cells:
        total = sum(r.joules for r in cell.gpu_functions)
        print(f"--- {cell.label} ---")
        for row in cell.gpu_functions[: args.top]:
            print(
                f"  {row.function:>24} "
                f"{joules_to_megajoules(row.joules):>8.3f} MJ "
                f"{row.joules / total:>7.2%}"
            )
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    series = _print_sweep(args)
    if args.plot:
        from repro.analysis.ascii_plot import line_chart

        named = {f"{side}^3": norm for side, norm in series.items()}
        print(line_chart(named, y_label="normalized EDP vs MHz"))
    return 0


#: The Figure 5 functions ``fig5 --plot`` draws.
_FIG5_PLOTTED = "MomentumEnergy IADVelocityDivCurl DomainDecompAndSync Density".split()


def _cmd_fig5(args: argparse.Namespace) -> int:
    series = _print_sweep(args)
    if args.plot:
        from repro.analysis.ascii_plot import line_chart

        shown = {fn: norm for fn, norm in series.items() if fn in _FIG5_PLOTTED}
        print(line_chart(shown, y_label="normalized EDP vs MHz"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_scaled_experiment
    from repro.instrumentation import (
        device_report,
        function_report,
        health_report,
    )
    from repro.instrumentation.reporting import artifact_report
    from repro.slurm import sacct_report
    from repro.timeseries import TimeseriesCollector

    system = get_system(args.system)
    test_case = TEST_CASES[args.case]
    governor = None
    if args.governor is not None:
        from repro.tuning.governor import GovernorConfig

        governor = GovernorConfig.for_system(
            args.governor, system, power_cap_watts=args.power_cap
        )
    result = run_scaled_experiment(
        system,
        test_case,
        args.cards,
        num_steps=args.steps,
        resilient=not args.no_resilient,
        inject_fault=args.inject_fault,
        fault_target=args.fault_target,
        collector=TimeseriesCollector() if args.timeseries else None,
        audit=_audit_mode(args),
        governor=governor,
    )
    print(sacct_report([result.accounting]))
    print()
    print(device_report(result.run))
    print()
    print(function_report(result.run, "gpu"))
    if result.run.telemetry_health:
        print()
        print(health_report(result.run))
    if result.governor is not None:
        from repro.instrumentation.reporting import governor_report

        print()
        print(governor_report(result.governor))
    point = validate_pmt_against_slurm(result.run, result.accounting, args.cards)
    print(f"\nPMT/Slurm = {point.ratio:.3f} (quality: {point.quality})")
    if result.audit is not None:
        print()
        print(result.audit.render())
    if args.timeseries:
        print()
        print(artifact_report(_export_artifacts(result, args.artifacts_dir, args)))
    if args.out:
        result.run.write(args.out)
        print(f"measurements written to {args.out}")
    return 0


def _audit_mode(args: argparse.Namespace) -> "bool | str | None":
    """Map ``--audit`` / ``--audit-strict`` to the runner's audit arg.

    Neither flag defers to the ``REPRO_AUDIT`` environment (``None``).
    """
    if getattr(args, "audit_strict", False):
        return "strict"
    if getattr(args, "audit", False):
        return True
    return None


def _export_artifacts(result, out_dir: str, args: argparse.Namespace) -> dict:
    """Write a run's retained telemetry as the observability bundle."""
    from repro.timeseries import export_bundle

    collector = result.timeseries
    return export_bundle(
        out_dir,
        collector.store,
        collector.spans,
        metadata={
            "system": result.system.name,
            "test_case": result.test_case.name,
            "num_cards": result.num_cards,
            "gpu_freq_mhz": result.gpu_freq_mhz,
            "num_steps": result.run.num_steps,
        },
        basename=f"{args.case.replace(' ', '-').lower()}-{args.cards}c",
    )


def _run_with_collector(args: argparse.Namespace, collector):
    from repro.experiments.runner import run_scaled_experiment

    return run_scaled_experiment(
        get_system(args.system),
        OBSERVABILITY_CASES[args.case],
        args.cards,
        num_steps=args.steps,
        power_sample_interval_s=args.interval,
        collector=collector,
    )


def _cmd_export_trace(args: argparse.Namespace) -> int:
    from repro.instrumentation.reporting import artifact_report
    from repro.timeseries import TimeseriesCollector

    result = _run_with_collector(args, TimeseriesCollector())
    artifacts = _export_artifacts(result, args.out_dir, args)
    summary = result.timeseries.summary()
    print(
        f"{args.case} on {args.system}: "
        f"{summary['samples']} samples over {summary['channels']} channels, "
        f"{summary['spans']} region spans "
        f"({summary['store_bytes'] / 1024:.0f} KiB retained)"
    )
    print(artifact_report(artifacts))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.instrumentation.reporting import service_qc_summary
    from repro.service import ServiceThread, TenantConfig

    config = TenantConfig(max_pending_samples=args.max_pending)
    with ServiceThread(
        host=args.host,
        port=args.port,
        http_port=args.http_port,
        tenant_config=config,
    ) as handle:
        print(
            f"telemetry service on {handle.host}: "
            f"stream :{handle.port}, http :{handle.http_port}"
        )
        print(
            f"  publish:   python -m repro publish --url "
            f"telemetry://{handle.host}:{handle.port}/<tenant>"
        )
        print(
            f"  watch:     python -m repro watch --url "
            f"{handle.host}:{handle.http_port} --tenant <name>"
        )
        print(
            f"  metrics:   http://{handle.host}:{handle.http_port}/metrics",
            flush=True,  # the banner must reach pipes before we block
        )
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            pass
        registry = handle.service.registry
        print()
        print(registry.accounting_summary())
        print(
            service_qc_summary(
                registry.snapshot(),
                handle.service.watch_frames_sent,
                handle.service.watch_frames_dropped,
            )
        )
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    from repro.instrumentation.reporting import service_qc_summary
    from repro.service import (
        ServiceClient,
        ServiceCollector,
        endpoint_tenant,
        parse_endpoint,
    )

    host, port = parse_endpoint(args.url)
    tenant = endpoint_tenant(args.url) or args.tenant
    client = ServiceClient(
        host,
        port,
        tenant,
        source=f"publish:{args.case}",
        backpressure=args.backpressure,
    )
    collector = ServiceCollector(client, batch_ticks=args.batch_ticks)
    result = _run_with_collector(args, collector)
    ack = collector.close()
    summary = collector.summary()
    print(
        f"{args.case} on {args.system}: {summary['samples']} samples "
        f"retained locally, {client.published_samples} published to "
        f"{host}:{port} as tenant {tenant!r} "
        f"({client.published_batches} batches)"
    )
    print(
        f"run window: {result.run.app_seconds:.0f} s instrumented, "
        f"{summary['channels']} channels"
    )
    snapshot = {k: v for k, v in ack.items() if k != "kind"}
    print(service_qc_summary([snapshot]))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.timeseries import TimeseriesCollector, attach_live_printer

    if args.url:
        return _watch_remote(args)
    collector = TimeseriesCollector()
    view = attach_live_printer(
        collector, every_ticks=args.every, width=args.width
    )
    result = _run_with_collector(args, collector)
    # Final frame: the completed run's full dashboard.
    print(view.render())
    summary = collector.summary()
    print(
        f"\nrun complete: {summary['samples']} samples, "
        f"{summary['spans']} spans, "
        f"{result.run.app_seconds:.0f} s instrumented window"
    )
    return 0


def _watch_remote(args: argparse.Namespace) -> int:
    """Attach ``watch`` to a running service's SSE live stream."""
    from repro.service import parse_endpoint, watch_sse

    if not args.tenant:
        print("error: watch --url needs --tenant", file=sys.stderr)
        return 1
    host, port = parse_endpoint(args.url)
    frames = 0
    for payload in watch_sse(
        host,
        port,
        args.tenant,
        every=args.every,
        width=args.width,
        max_frames=args.frames,
    ):
        print(payload["frame"])
        print(
            f"[{payload['tenant']}] {payload['samples']} samples over "
            f"{payload['channels']} channels"
        )
        frames += 1
    print(f"\nwatch closed after {frames} frames")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import comparison_report
    from repro.experiments.runner import run_scaled_experiment

    case = TEST_CASES[args.case]
    run_a = run_scaled_experiment(
        get_system(args.system_a), case, args.cards, num_steps=args.steps
    ).run
    run_b = run_scaled_experiment(
        get_system(args.system_b), case, args.cards, num_steps=args.steps
    ).run
    print(comparison_report(run_a, run_b, counter=args.counter))
    return 0


def _fig1_sweep(args: argparse.Namespace):
    from repro.campaign.merge import merge_figure1
    from repro.experiments.validation import figure1_spec, figure1_table

    spec = figure1_spec(
        get_system(args.system), tuple(args.cards), num_steps=args.steps, seed=args.seed
    )
    return spec, merge_figure1, figure1_table


def _fig4_sweep(args: argparse.Namespace):
    from repro.campaign.merge import merge_figure4
    from repro.experiments.frequency import BASELINE_MHZ, figure4_spec, figure4_table

    spec = figure4_spec(
        tuple(args.sides), tuple(args.freqs), num_steps=args.steps, seed=args.seed
    )
    return spec, lambda results: merge_figure4(results, BASELINE_MHZ), figure4_table


def _fig5_sweep(args: argparse.Namespace):
    from repro.campaign.merge import merge_figure5
    from repro.experiments.frequency import BASELINE_MHZ, figure5_spec, figure5_table

    spec = figure5_spec(
        tuple(args.freqs), cube_side=args.side, num_steps=args.steps, seed=args.seed
    )
    return spec, lambda results: merge_figure5(results, BASELINE_MHZ), figure5_table


def _weak_scaling_sweep(args: argparse.Namespace):
    from repro.campaign.merge import merge_weak_scaling
    from repro.experiments.scaling import weak_scaling_spec, weak_scaling_table

    spec = weak_scaling_spec(
        get_system(args.system), tuple(args.cards), num_steps=args.steps, seed=args.seed
    )
    return spec, merge_weak_scaling, weak_scaling_table


#: The named campaign sweeps: each maps the parsed options to the sweep's
#: spec, merge (results -> figure data) and table (figure data -> text).
#: The builders import lazily, so building the parser loads no experiments.
CAMPAIGN_SWEEPS = {
    "fig1": _fig1_sweep,
    "fig4": _fig4_sweep,
    "fig5": _fig5_sweep,
    "weak-scaling": _weak_scaling_sweep,
}


def _sweep(args: argparse.Namespace):
    """``(spec, merge, table)`` of the named sweep ``args.sweep``."""
    from dataclasses import replace

    spec, merge, table = CAMPAIGN_SWEEPS[args.sweep](args)
    if args.governor is not None:
        spec = replace(spec, governor=args.governor)
    return spec, merge, table


def _print_sweep(args: argparse.Namespace):
    """Run ``args.sweep`` without a store, print its table, return its data."""
    from repro.campaign import execute, expand

    spec, merge, table = _sweep(args)
    results, _ = execute(expand(spec))
    merged = merge(results)
    print(table(merged))
    return merged


def _cache_dir(args: argparse.Namespace) -> str:
    """``--cache-dir``, falling back to ``$REPRO_CACHE_DIR`` then default.

    Resolved at command time (not parser-build time) so federated
    workers started from different shells agree on the shared root
    through the environment alone.
    """
    if args.cache_dir is not None:
        return args.cache_dir
    from repro.config import CampaignSettings

    return CampaignSettings.from_env().cache_dir


def _campaign_store(args: argparse.Namespace):
    from repro.campaign import ResultStore

    if getattr(args, "no_cache", False):
        return None
    return ResultStore(_cache_dir(args))


def _progress_printer(total: int):
    """A one-line ``\\r``-rewriting progress callback for the terminal."""

    def progress(stats, key) -> None:
        line = (
            f"\r[{stats.done}/{total}] "
            f"{stats.hits} cached, {stats.misses} executed  {key.label}"
        )
        print(f"{line[:117]:<117}", end="", flush=True)
        if stats.done == total:
            print(flush=True)

    return progress


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import campaign_summary, execute, expand

    spec, merge, table = _sweep(args)
    keys = expand(spec)
    progress = None if args.quiet else _progress_printer(len(keys))
    audit_mode = _audit_mode(args)
    if audit_mode:
        # Worker processes inherit the env, so cache misses also run the
        # *runtime* audit hooks in situ (strict mode aborts the worker on
        # the first broken invariant, not just the post-hoc sweep).
        import os

        from repro.audit import AUDIT_ENV

        os.environ[AUDIT_ENV] = (
            "strict" if audit_mode == "strict" else "record"
        )
    from repro.config import CampaignSettings
    from repro.errors import CampaignExecutionError

    settings = CampaignSettings.from_env()
    try:
        results, stats = execute(
            keys,
            store=_campaign_store(args),
            workers=args.workers if args.workers is not None else settings.workers,
            progress=progress,
            audit=audit_mode,
            federation=settings.federation(),
            profile_systems=settings.worker_systems,
        )
    except CampaignExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for failure in exc.failures:
            print(f"  failed: {failure.label}", file=sys.stderr)
        return 1
    print(table(merge(results)))
    print()
    print(campaign_summary(spec.name, stats, results))
    if stats.audit_reports is not None:
        from repro.instrumentation.reporting import campaign_audit_summary

        print(campaign_audit_summary(stats))
        if stats.audit_findings:
            return 1
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import ResultStore, expand
    from repro.campaign.queue import FailureLog, LeaseQueue

    spec = _sweep(args)[0]
    keys = expand(spec)
    cache_dir = _cache_dir(args)
    store = ResultStore(cache_dir)
    cached = sum(1 for key in keys if store.contains(key))
    print(
        f"Campaign {spec.name!r}: {len(keys)} points, {cached} cached, "
        f"{len(keys) - cached} to run (cache: {cache_dir})"
    )
    stats = store.stats()
    print(
        f"Store: {stats['entries']} entries, {stats['bytes'] / 1024:.0f} KiB, "
        f"{stats['corrupt']} corrupt, {stats['stale']} stale, "
        f"{stats['tmp_orphans']} orphaned temp "
        f"file{'s' if stats['tmp_orphans'] != 1 else ''}"
    )
    live, stale = LeaseQueue(store.root).active()
    failures = FailureLog(store.root).all_failures()
    poisoned = sum(1 for f in failures if f.poisoned)
    print(
        f"Federation: {live} live lease{'s' if live != 1 else ''}, "
        f"{stale} stale, {len(failures)} failure "
        f"record{'s' if len(failures) != 1 else ''} "
        f"({poisoned} poisoned)"
    )
    return 0


def _cmd_campaign_work(args: argparse.Namespace) -> int:
    """One federated worker: drain a sweep against the shared cache.

    Start any number of these (any hosts sharing the cache root): they
    coordinate through lease files alone and together drain the spec.
    """
    from repro.campaign import ResultStore, expand
    from repro.campaign.queue import WorkerProfile, drain
    from repro.config import CampaignSettings

    settings = CampaignSettings.from_env()
    systems = (
        tuple(args.profile_systems)
        if args.profile_systems
        else settings.worker_systems
    )
    profile = WorkerProfile.local(systems=systems)
    keys = expand(_sweep(args)[0])
    store = ResultStore(_cache_dir(args))
    stats = drain(
        keys, store, config=settings.federation(), profile=profile
    )
    print(
        f"Worker {stats.worker}: {stats.executed} executed "
        f"({stats.executed_steps} steps), {stats.hits_observed} taken by "
        f"peers/cache, {stats.steals} leases stolen, "
        f"{stats.failures} failures, {stats.poisoned_seen} poisoned, "
        f"{stats.corrupt_seen} corrupt entries seen"
    )
    return 1 if stats.poisoned_seen else 0


def _cmd_campaign_gc(args: argparse.Namespace) -> int:
    """Reap federation debris: orphan temps, stale leases and entries, rot."""
    from repro.campaign import ResultStore
    from repro.campaign.queue import gc_sweep
    from repro.config import CampaignSettings

    cache_dir = _cache_dir(args)
    store = ResultStore(cache_dir)
    counts = gc_sweep(store, config=CampaignSettings.from_env().federation())
    print(
        f"gc {cache_dir}: {counts['tmp_reaped']} temp files reaped, "
        f"{counts['leases_swept']} stale leases swept, "
        f"{counts['corrupt_quarantined']} corrupt entries quarantined, "
        f"{counts['stale_removed']} stale entries removed"
    )
    return 0


def _cmd_campaign_clean(args: argparse.Namespace) -> int:
    from repro.campaign import ResultStore, expand

    cache_dir = _cache_dir(args)
    store = ResultStore(cache_dir)
    if args.sweep is None:
        removed = store.clean()
        print(f"removed {removed} cache entries from {cache_dir}")
    else:
        removed = store.clean(expand(_sweep(args)[0]))
        print(
            f"removed {removed} {args.sweep!r} cache entries "
            f"from {cache_dir}"
        )
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.config import MINIHPC, SUBSONIC_TURBULENCE
    from repro.tuning import tune_per_function

    report = tune_per_function(
        MINIHPC,
        SUBSONIC_TURBULENCE,
        num_cards=2,
        freqs_mhz=tuple(args.freqs),
        num_steps=args.steps,
        particles_per_rank=float(args.side) ** 3,
        objective=args.objective,
        max_slowdown=args.max_slowdown,
    )
    print("per-function clock table (MHz):")
    for fn, freq in sorted(report.clock_table.items()):
        print(f"  {fn:>24} -> {freq:.0f}")
    dilation = report.dynamic_seconds / report.baseline_seconds
    print(f"switches          : {report.switch_count}")
    print(f"time dilation     : {dilation:.3f}x")
    print(f"EDP vs baseline   : {report.edp_vs_baseline:.3f}")
    print(f"EDP vs best static: {report.edp_vs_best_static:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Application-level energy measurement for large-scale "
            "simulations (SC-W 2023 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the Table 1 inventory").set_defaults(
        func=_cmd_table1
    )
    sub.add_parser("backends", help="list PMT backends").set_defaults(
        func=_cmd_backends
    )

    p = sub.add_parser("fig1", help="PMT vs Slurm validation series")
    p.add_argument("--plot", action="store_true", help="render an ASCII chart")
    p.add_argument(
        "--systems", nargs="+", default=["LUMI-G", "CSCS-A100"],
        choices=sorted(SYSTEMS),
    )
    p.add_argument("--cards", nargs="+", type=int, default=[8, 16, 24, 32, 40, 48])
    _add_steps(p)
    p.set_defaults(func=_cmd_fig1, sweep="fig1", seed=0, governor=None)

    p = sub.add_parser("fig2", help="device energy breakdown")
    p.add_argument("--plot", action="store_true", help="render ASCII bars")
    p.add_argument("--cards", type=int, default=48)
    _add_steps(p)
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("fig3", help="per-function energy breakdown")
    p.add_argument("--cards", type=int, default=48)
    p.add_argument("--top", type=int, default=6)
    _add_steps(p)
    p.set_defaults(func=_cmd_fig3)

    p = sub.add_parser("fig4", help="EDP vs frequency per problem size")
    p.add_argument("--plot", action="store_true", help="render an ASCII chart")
    p.add_argument("--sides", nargs="+", type=int, default=[200, 300, 450])
    _add_freqs(p)
    _add_steps(p)
    p.set_defaults(func=_cmd_fig4, sweep="fig4", seed=0, governor=None)

    p = sub.add_parser("fig5", help="per-function EDP vs frequency")
    p.add_argument("--plot", action="store_true", help="render an ASCII chart")
    _add_freqs(p)
    _add_steps(p)
    p.set_defaults(func=_cmd_fig5, sweep="fig5", seed=0, governor=None, side=450)

    p = sub.add_parser("report", help="one instrumented run, full reports")
    _add_run_options(p, TEST_CASES, "Subsonic Turbulence", interval=False)
    p.add_argument("--out", default=None, help="write measurement JSON here")
    p.add_argument(
        "--inject-fault",
        default=None,
        choices=["freeze", "dropout", "glitch"],
        help="break one sensor before the run (fault-injection ablation)",
    )
    p.add_argument(
        "--fault-target",
        default="gpu0",
        help="sensor to break: node/cpu/memory/gpu<K>/rocm<K> (default gpu0)",
    )
    p.add_argument(
        "--no-resilient",
        action="store_true",
        help="measure without the fault-tolerant layer (faults then abort)",
    )
    p.add_argument(
        "--timeseries",
        action="store_true",
        help="retain the telemetry timeline and export observability artifacts",
    )
    p.add_argument(
        "--artifacts-dir",
        default="artifacts",
        help="directory for --timeseries exports (default: artifacts/)",
    )
    _add_governor(p, "steer GPU clocks online with the energy-aware governor")
    p.add_argument(
        "--power-cap",
        type=float,
        default=None,
        help="rolling node-power budget in watts for --governor power-cap "
        "(default: 80%% of the node's nominal peak)",
    )
    _add_audit(p)
    _add_steps(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "export-trace",
        help="run a case, export Chrome-trace/Prometheus/CSV artifacts",
    )
    _add_run_options(p)
    p.add_argument(
        "--out-dir", default="artifacts", help="artifact directory"
    )
    _add_steps(p)
    p.set_defaults(func=_cmd_export_trace)

    p = sub.add_parser(
        "watch", help="live per-node power sparklines while a run executes"
    )
    _add_run_options(p)
    p.add_argument(
        "--every", type=int, default=50,
        help="render a frame every N sampler ticks (default 50)",
    )
    p.add_argument("--width", type=int, default=48, help="sparkline width")
    p.add_argument(
        "--url",
        default=None,
        help="attach to a running service's HTTP port (host:port) "
        "instead of running a local experiment",
    )
    p.add_argument(
        "--tenant", default=None, help="tenant to watch (with --url)"
    )
    p.add_argument(
        "--frames",
        type=int,
        default=None,
        help="stop after N frames (with --url; default: stream until close)",
    )
    _add_steps(p, default=20)
    p.set_defaults(func=_cmd_watch)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant telemetry ingest/query service",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=0,
        help="stream (framed protocol) port; 0 binds an ephemeral port",
    )
    p.add_argument(
        "--http-port", type=int, default=0,
        help="query/metrics/watch HTTP port; 0 binds an ephemeral port",
    )
    p.add_argument(
        "--max-pending",
        type=int,
        default=262_144,
        help="per-tenant write-queue bound in samples (default 262144)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "publish",
        help="run a case and stream its telemetry to a service",
    )
    p.add_argument(
        "--url",
        required=True,
        help="service stream endpoint: telemetry://host:port[/tenant] "
        "(a /tenant path overrides --tenant)",
    )
    p.add_argument("--tenant", default="default")
    p.add_argument(
        "--backpressure",
        default="wait",
        choices=["wait", "shed"],
        help="block when the tenant queue is full (wait) or let the "
        "service shed with accounting (shed)",
    )
    p.add_argument(
        "--batch-ticks", type=int, default=32,
        help="sampler ticks buffered per published batch (default 32)",
    )
    _add_run_options(p)
    _add_steps(p, default=20)
    p.set_defaults(func=_cmd_publish)

    p = sub.add_parser(
        "compare", help="A/B per-function comparison between two systems"
    )
    p.add_argument("--system-a", default="CSCS-A100", choices=sorted(SYSTEMS))
    p.add_argument("--system-b", default="LUMI-G", choices=sorted(SYSTEMS))
    p.add_argument(
        "--case", default="Subsonic Turbulence", choices=sorted(TEST_CASES)
    )
    p.add_argument("--cards", type=int, default=8)
    p.add_argument("--counter", default="gpu", choices=["gpu", "cpu", "node"])
    _add_steps(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "campaign",
        help="sweep execution with a content-addressed result cache",
    )
    action = p.add_subparsers(dest="action", required=True)

    def _add_cache_dir(cp) -> None:
        cp.add_argument(
            "--cache-dir",
            default=None,
            help="result cache root (default: $REPRO_CACHE_DIR or "
            f"{DEFAULT_CAMPAIGN.cache_dir})",
        )

    def _add_campaign_options(cp, **sweep) -> None:
        sweep.setdefault("help", "the named sweep to operate on")
        cp.add_argument("sweep", choices=CAMPAIGN_SWEEPS, **sweep)
        _add_cache_dir(cp)
        cp.add_argument("--seed", type=int, default=0)
        cp.add_argument(
            "--steps",
            type=int,
            default=None,
            help="time-steps per run (default: the case's paper value)",
        )
        # Sweep-axis options (each sweep reads the ones it understands).
        cp.add_argument("--sides", nargs="+", type=int, default=[200, 300, 450])
        _add_freqs(cp)
        cp.add_argument("--side", type=int, default=450)
        cp.add_argument(
            "--system", default="CSCS-A100", choices=sorted(SYSTEMS)
        )
        cp.add_argument(
            "--cards", nargs="+", type=int, default=[8, 16, 24, 32, 40, 48]
        )
        _add_governor(
            cp,
            "run every point under the online governor (part of the cache "
            "identity)",
        )

    cp = action.add_parser("run", help="execute a sweep (cache misses only)")
    _add_campaign_options(cp)
    cp.add_argument(
        "--workers",
        type=int,
        default=None,
        help="local lease-queue workers draining the cache misses "
        "(default: $REPRO_CAMPAIGN_WORKERS or serial; byte-identical "
        "results either way)",
    )
    cp.add_argument(
        "--no-cache",
        action="store_true",
        help="execute every point without reading or writing the cache",
    )
    cp.add_argument(
        "--quiet", action="store_true", help="suppress the progress line"
    )
    _add_audit(cp)
    cp.set_defaults(func=_cmd_campaign_run)

    cp = action.add_parser(
        "work",
        help="run one federated worker draining a sweep (start any number)",
    )
    _add_campaign_options(cp)
    cp.add_argument(
        "--profile-systems",
        nargs="*",
        default=None,
        choices=sorted(SYSTEMS),
        help="systems this worker prefers to execute "
        "(default: $REPRO_WORKER_SYSTEMS)",
    )
    cp.set_defaults(func=_cmd_campaign_work)

    cp = action.add_parser(
        "status", help="cached/missing point counts of a sweep"
    )
    _add_campaign_options(cp)
    cp.set_defaults(func=_cmd_campaign_status)

    cp = action.add_parser(
        "gc",
        help="reap orphan temp files, stale leases, corrupt and stale entries",
    )
    _add_cache_dir(cp)
    cp.set_defaults(func=_cmd_campaign_gc)

    cp = action.add_parser("clean", help="drop cache entries")
    _add_campaign_options(
        cp,
        nargs="?",
        default=None,
        help="only this sweep's entries (default: the whole cache)",
    )
    cp.set_defaults(func=_cmd_campaign_clean)

    p = sub.add_parser("tune", help="dynamic per-function DVFS (extension)")
    _add_freqs(p)
    p.add_argument("--side", type=int, default=450)
    p.add_argument("--objective", default="edp", choices=["edp", "energy"])
    p.add_argument("--max-slowdown", type=float, default=None)
    _add_steps(p, default=40)
    p.set_defaults(func=_cmd_tune)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
