"""Campaign execution: cache lookup, local queue workers, result collection.

:func:`execute` is the one substrate every sweep in the repo runs on.
It partitions the expanded keys into cache hits and misses, executes the
misses — serially in-process for ``workers=1`` (the reference path), or
for ``workers=N`` through ``min(N, misses)`` local workers draining the
lease-based work queue (any number of extra ``repro campaign work``
processes on any number of hosts welcome) — and archives each completed
run before moving on, so a killed sweep resumes from the completed
subset.

Worker failures never abort a sweep: each failing key is recorded (a
typed :class:`~repro.campaign.queue.RunFailure`, archived next to the
results when a store is attached), every other key keeps draining, and
one :class:`~repro.errors.CampaignExecutionError` summarizing the
failed keys is raised at the end — with the completed results attached.
The serial path records one attempt per key; queue workers retry a
failing key until it is poisoned (``FederationConfig.max_attempts``).

Parallelism cannot change results: every run is an independent
simulation driven by its own :class:`~repro.hardware.clock.VirtualClock`
and seeded entirely from its :class:`~repro.campaign.keys.RunKey` (never
from worker identity or execution order), so a queue-drained sweep is
bit-identical to the serial one by construction.  The property tests
and the campaign/federation benchmarks enforce this.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

from repro.campaign.keys import RunKey, resolve_test_case, run_key_hash
from repro.campaign.store import (
    CORRUPT,
    AccountingSummary,
    CampaignResult,
    ResultStore,
)
from repro.config import get_system
from repro.errors import CampaignExecutionError, ConfigurationError


@dataclass
class CampaignStats:
    """What one :func:`execute` call did."""

    total: int = 0
    hits: int = 0
    misses: int = 0
    #: Simulation steps actually executed (0 on a fully-cached re-run).
    executed_steps: int = 0
    workers: int = 1
    #: Corrupt/foreign cache entries found at hit-scan time: quarantined
    #: and re-executed, never silently absorbed as plain misses.
    corrupt: int = 0
    #: Keys whose execution failed (their runs are *not* in the results;
    #: the summarizing CampaignExecutionError carries the details).
    failed: int = 0
    #: Post-hoc energy-audit coverage (``audit=`` on :func:`execute`):
    #: invariant evaluations run and findings raised across all results,
    #: cache hits included.
    audit_checks: int = 0
    audit_findings: int = 0
    #: Per-key :class:`~repro.audit.findings.AuditReport`, when audited.
    audit_reports: dict | None = None

    @property
    def done(self) -> int:
        return self.hits + self.misses


#: Progress callback: called after every completed point with the stats
#: so far (``stats.done`` of ``stats.total``) and the key just finished.
ProgressFn = Callable[[CampaignStats, RunKey], None]


def execute_key(key: RunKey) -> CampaignResult:
    """Run one campaign point and package the serializable outcome.

    The run is seeded from the key alone; frequency requests use
    privileged DVFS so campaigns can sweep clocks on any system (the
    user-facing ``fig4``/``fig5`` defaults still target miniHPC, the one
    system whose clocks are user controllable).
    """
    from repro.experiments.runner import run_scaled_experiment

    result = run_scaled_experiment(
        get_system(key.system),
        resolve_test_case(key.test_case),
        key.num_cards,
        gpu_freq_mhz=key.gpu_freq_mhz,
        num_steps=key.num_steps,
        particles_per_rank=key.particles_per_rank,
        seed=key.seed,
        privileged_dvfs=True,
        governor=key.governor,
    )
    return CampaignResult(
        key=key,
        run=result.run,
        accounting=AccountingSummary.from_accounting(result.accounting),
    )


def _record_failures(
    store: ResultStore | None,
    failed: list[tuple[RunKey, Exception]],
) -> tuple:
    """Archive failures next to the results; returns RunFailure objects.

    With a store attached the records go through the shared
    :class:`~repro.campaign.queue.FailureLog`, so attempt counts
    accumulate across re-runs of the same spec and queue workers see
    the same record; without one they only live in the raised error.
    """
    if not failed:
        return ()
    from repro.campaign.queue import FailureLog, RunFailure, WorkerProfile

    profile = WorkerProfile.local()
    log = FailureLog(store.root) if store is not None else None
    failures = []
    for key, exc in failed:
        digest = run_key_hash(key)
        if log is not None:
            failure = log.record(key, digest, exc, profile.worker_id)
        else:
            failure = RunFailure(
                digest=digest,
                key=key,
                error_type=type(exc).__name__,
                message=str(exc),
                attempts=1,
                poisoned=False,
                worker=profile.worker_id,
            )
        failures.append(failure)
    return tuple(failures)


def _raise_failures(
    failures: tuple,
    results: dict[RunKey, CampaignResult],
    stats: CampaignStats,
) -> None:
    stats.failed = len(failures)
    shown = ", ".join(
        f"{f.label} ({f.error_type}: {f.message})" for f in failures[:3]
    )
    more = "" if len(failures) <= 3 else f", and {len(failures) - 3} more"
    raise CampaignExecutionError(
        f"{len(failures)} of {stats.total} campaign runs failed: "
        f"{shown}{more}; {len(results)} completed runs stay archived",
        failures=failures,
        results=results,
        stats=stats,
    )


def _federated_child(keys: tuple[RunKey, ...], root: str, config, token: str) -> None:
    """One local queue worker process (module-level: picklable)."""
    from repro.campaign.queue import WorkerProfile, drain

    profile = WorkerProfile.local(token=token)
    drain(keys, ResultStore(root), config=config, profile=profile)


def _execute_federated(
    misses: list[RunKey],
    store: ResultStore,
    workers: int,
    federation,
    collect: Callable[[RunKey, CampaignResult], None],
) -> tuple[tuple, str | None]:
    """Drain the misses through ``min(workers, misses)`` local queue workers.

    Returns the failures (empty on a clean drain) and, if a worker died
    without recording why some keys stayed unresolved, a description of
    that crash (else ``None``).  The parent never executes runs itself:
    it spawns the workers, watches the store for completions (for live
    progress), and collects/validates at the end.  Extra ``repro
    campaign work`` processes — on this host or any other sharing the
    cache root — join the same drain transparently.
    """
    from repro.campaign.queue import FailureLog, FederationConfig

    config = federation if federation is not None else FederationConfig()
    ctx = multiprocessing.get_context()
    tokens = [f"fed{i}-{os.getpid()}" for i in range(min(workers, len(misses)))]
    procs = [
        ctx.Process(
            target=_federated_child,
            args=(tuple(misses), str(store.root), config, tok),
            daemon=False,
        )
        for tok in tokens
    ]
    for proc in procs:
        proc.start()

    pending = {key: store.path_for(key) for key in misses}
    try:
        while any(proc.is_alive() for proc in procs):
            for key in [k for k, p in pending.items() if p.is_file()]:
                result = store.get(key)
                if result is None:
                    continue  # mid-steal rewrite; re-check next tick
                del pending[key]
                collect(key, result)
            time.sleep(config.poll_s)
    finally:
        for proc in procs:
            proc.join()

    # Final collection pass: anything that completed after the last tick.
    for key in list(pending):
        result = store.get(key)
        if result is not None:
            del pending[key]
            collect(key, result)

    log = FailureLog(store.root, config=config)
    failures, lost = [], []
    for key in pending:
        failure = log.load(run_key_hash(key))
        if failure is not None:
            failures.append(failure)
        else:  # worker died without recording (crashed drain itself)
            lost.append(key)
    crash = None
    if lost:
        codes = sorted({proc.exitcode for proc in procs})
        crash = (
            f"local drain left {len(lost)} keys unresolved with no "
            f"failure record (worker exit codes {codes}); "
            f"first: {lost[0].label}"
        )
    return tuple(failures), crash


def execute(
    keys: tuple[RunKey, ...],
    store: ResultStore | None = None,
    workers: int = 1,
    progress: ProgressFn | None = None,
    audit: bool | str | None = None,
    federation=None,
) -> tuple[dict[RunKey, CampaignResult], CampaignStats]:
    """Execute a campaign's keys, reusing every cached result.

    Returns the per-key results and the execution stats.  With a
    ``store``, every fresh run is archived the moment it completes.

    ``workers=1`` executes the misses serially in this process.
    ``workers=N`` drains them through ``min(N, misses)`` local worker
    processes on the lease-based work queue (plus any number of
    external ``repro campaign work`` participants sharing the cache
    root): workers claim keys via atomic lease files, steal stale
    leases of dead workers, and archive into the shared store.  Without
    a ``store`` the drain runs over a temporary store deleted on return.
    Results are collected in completion order but keyed by
    :class:`RunKey`, so downstream merges are order-independent.
    ``federation`` (a :class:`~repro.campaign.queue.FederationConfig`)
    tunes lease TTL and retry policy.

    Failed keys never abort the drain: the rest of the sweep completes
    and one :class:`~repro.errors.CampaignExecutionError` is raised at
    the end, carrying the completed results, the stats, and the typed
    failures (archived in ``<root>/failures/`` when a store is
    attached).  Serially a failing key is attempted once; queue workers
    retry it until it is poisoned.

    ``audit`` runs the post-hoc energy-accounting audit over *every*
    result — cache hits included, since the checkers work from the
    serialized records — and reports coverage in the stats
    (``audit_checks`` / ``audit_findings`` / ``audit_reports``).
    ``"strict"`` raises :class:`~repro.errors.AuditError` on the first
    error finding.  Runtime (in-situ) auditing of the executing workers
    is env-driven: set ``REPRO_AUDIT`` and the worker processes inherit
    it (the CLI's ``--audit`` flag does exactly that).
    """
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    if len(set(keys)) != len(keys):
        raise ConfigurationError("duplicate run keys in campaign")

    stats = CampaignStats(total=len(keys), workers=workers)
    results: dict[RunKey, CampaignResult] = {}

    misses = []
    for key in keys:
        cached, status = (
            store.lookup(key) if store is not None else (None, "miss")
        )
        if cached is not None:
            results[key] = cached
            stats.hits += 1
            if progress is not None:
                progress(stats, key)
        else:
            if status == CORRUPT:
                # Quarantine the rot (bytes stay inspectable), count it,
                # and re-execute the key over a clean address.
                stats.corrupt += 1
                store.quarantine_entry(key)
            misses.append(key)

    def _collect(key: RunKey, result: CampaignResult) -> None:
        results[key] = result
        stats.misses += 1
        stats.executed_steps += result.run.num_steps
        if progress is not None:
            progress(stats, key)

    failures: tuple = ()
    if workers == 1:
        failed: list[tuple[RunKey, Exception]] = []
        for key in misses:
            try:
                result = execute_key(key)
            except Exception as exc:
                failed.append((key, exc))
                continue
            if store is not None:
                store.put(key, result)
            _collect(key, result)
        failures = _record_failures(store, failed)
    elif misses:
        # Without a store the workers drain into a throwaway one.
        scratch = tempfile.TemporaryDirectory() if store is None else nullcontext()
        with scratch as root:
            failures, crash = _execute_federated(
                misses,
                store if store is not None else ResultStore(root),
                workers,
                federation,
                _collect,
            )
        if crash is not None:
            stats.failed = len(failures)
            raise CampaignExecutionError(
                crash, failures=failures, results=results, stats=stats
            )

    if failures:
        _raise_failures(failures, results, stats)

    from repro.audit.hooks import AuditSettings, audit_campaign_result

    audit_settings = AuditSettings.resolve(audit)
    if audit_settings.enabled:
        stats.audit_reports = {}
        for key in keys:
            report = audit_campaign_result(
                results[key], strict=audit_settings.strict
            )
            stats.audit_reports[key] = report
            stats.audit_checks += report.checks_run
            stats.audit_findings += len(report.findings)

    return results, stats
