"""One benchmark workload, run in this (fresh) process.

``run.py`` starts this file once per workload with the thread pools
pinned and the ``repro`` sources on ``PYTHONPATH``; it prints progress
on stderr and one JSON result as the last line of stdout.  With
``--trace 1`` the layers' public functions are wrapped in spans (see
``tracer.py``) and the per-layer metrics are reported instead of the
end-to-end ones.

Usage: python perfbench/workloads.py --workload NAME --seed N
       --seconds S --trace 0|1 --scratch DIR --t0 EPOCH_SECONDS
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Work per requested second, sized on a 2-vCPU x86 host so that one run
#: measures about ``--seconds``.  The amount of work depends only on
#: ``--seconds``: faster code finishes sooner, never does more.
TURBULENCE_STEPS_PER_S = 2.0
EVRARD_STEPS_PER_S = 1.2
CAMPAIGN_WARM_PASSES_PER_S = 8.0
SERVICE_EPISODES_PER_S = 1.0

#: The host's speed drifts by 10-30 % over minutes, in CPU time as much
#: as in wall time.  The end-to-end times, ``setup_s`` included, are
#: therefore reported scaled to a host on which ``calibrate()`` takes this
#: long (its median over the run); the raw times are in the report's
#: ``info`` line.
CALIB_REF_MS = 20.0
#: ... and on which the gathers of ``calibrate(gather=True)`` add this.
GATHER_REF_MS = 25.0

#: Repeated set-ups per SPH run; ``setup_s`` counts their median.
SETUP_REPEATS = 3
#: The campaign repeats its set-up after every this many cold keys.
CAMPAIGN_SETUP_EVERY = 4

SPH_N_SIDE = 16  # 4096 particles
EVRARD_N = 4096

CAMPAIGN_KEY_STEPS = 12
#: Seed of the campaign's warm-up key.  It is fixed: a governed key's cost
#: depends on its seed by up to 12 %, and the set-up is the same work in
#: every run.  The sweeps of benchmark seeds below it never contain it.
CAMPAIGN_WARMUP_SEED = 999_983
LOADGEN_TIMEOUT_S = 120.0

#: Relative tolerance of the committed small-case reference sums: wide
#: enough for reordered floating-point sums (the compiled kernels agree
#: with NumPy to 1e-12), narrow enough to catch a 1e-7 error in one field.
REFERENCE_RTOL = 1e-9
#: Magnitude below which a reference sum is compared absolutely.
REFERENCE_FLOOR = 1e-6
#: Relative total-energy drift allowed over an Evrard run.
EVRARD_ENERGY_RTOL = 0.05

HERE = Path(__file__).resolve().parent


def _work(per_second: float, seconds: float, minimum: int = 1) -> int:
    return max(minimum, round(per_second * seconds))


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: A fixed 32 kB JSON document.  Parsing it is allocation-heavy
#: interpreter work, which slows down with the host as the campaign's and
#: the service's JSON paths do (a plain arithmetic loop slows half as
#: much).
_CALIB_DOC = json.dumps({
    "rows": [
        {"t": i * 1e-3, "w": [j * 1.5 for j in range(8)], "name": f"n{i}"}
        for i in range(400)
    ]
})


_GATHER = None


def calibrate(gather: bool = False) -> float:
    """Seconds for a fixed mix of JSON parsing and in-place array work.

    Run between a workload's operations, never inside a timed one.  It
    works in place on one 0.8 MB array so that it barely moves
    ``peak_rss_mb``.  With ``gather``, it adds random gathers from an
    8 MB array, which miss the per-core caches as the SPH kernels'
    neighbor gathers do: those slow down with the shared cache and memory
    as much as with the CPU, and the JSON work alone does not track that.
    Its 13 MB of arrays are counted in the SPH workloads' ``peak_rss_mb``.
    """
    global _GATHER
    import numpy as np

    if gather and _GATHER is None:
        rng = np.random.default_rng(0)
        source = rng.random(1_000_000)
        index = rng.integers(0, source.size, 400_000).astype(np.int32)
        _GATHER = source, index, np.empty(index.size)

    t = time.perf_counter()
    for _ in range(15):
        json.loads(_CALIB_DOC)
    a = np.arange(100_000, dtype=np.float64)
    for _ in range(30):
        np.multiply(a, 1.000001, out=a)
        np.add(a, 1.0, out=a)
        np.sqrt(a, out=a)
    if gather:
        source, index, out = _GATHER
        for _ in range(3):
            np.take(source, index, out=out)
            np.multiply(out, 1.0001, out=out)
    return time.perf_counter() - t


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Result:
    """What one workload measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: name -> [passed every time, first failure detail]
        self.checks: dict[str, list] = {}
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.info: dict[str, object] = {}
        self.setup_times: list[float] = []
        self.calib: list[float] = []
        #: What ``calib`` would read on the reference host.
        self.calib_ref_ms = CALIB_REF_MS
        self.timed_s = 0.0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one correctness check; repeats of a name are AND-ed."""
        entry = self.checks.setdefault(name, [True, ""])
        if not ok:
            log(f"CHECK FAILED: {name}: {detail}")
            if entry[0]:
                entry[:] = [False, detail]

    @property
    def correct(self) -> bool:
        return all(ok for ok, _ in self.checks.values()) and self.failed == 0


# -- SPH ---------------------------------------------------------------------


def _digest(ps) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in ("pos", "vel", "h", "u", "rho", "mass"):
        h.update(getattr(ps, name).tobytes())
    return h.hexdigest()


def _build_sph(case: str, seed: int, n_side: int, n_evrard: int, hooks):
    from repro.sph import Simulation
    from repro.sph.driving import TurbulenceDriver
    from repro.sph.initial_conditions import make_evrard, make_turbulence
    from repro.sph.propagator import Propagator

    if case == "sph_turbulence":
        ps, box = make_turbulence(n_side=n_side, seed=seed)
        prop = Propagator(box, driver=TurbulenceDriver(box, seed=seed))
    else:
        ps, box = make_evrard(n_evrard, seed=seed)
        prop = Propagator(box, gravity=True)
    return Simulation(ps, prop, hooks)


def _reference_state(case: str) -> dict[str, float]:
    """Per-particle sums of the small fixed-seed reference run's state."""
    from repro.sph.hooks import ProfilingHooks

    sim = _build_sph(case, 7, 8, 512, ProfilingHooks())
    totals = sim.run(3)[-1].totals
    ps = sim.ps
    return {
        "rho": float(ps.rho.sum()),
        "rho2": float((ps.rho**2).sum()),
        "u": float(ps.u.sum()),
        "h": float(ps.h.sum()),
        "v2": float((ps.vel**2).sum()),
        "a2": float((ps.acc**2).sum()),
        "kinetic": totals.kinetic,
        "internal": totals.internal,
        "potential": totals.potential,
        **{f"momentum_{k}": float(v) for k, v in zip("xyz", totals.momentum)},
    }


def run_sph(case: str, seed: int, seconds: float, tracer, res: Result) -> None:
    import numpy as np

    from repro.sph.hooks import ProfilingHooks
    from tracer import HookSpans, diff

    steps = _work(
        TURBULENCE_STEPS_PER_S if case == "sph_turbulence" else EVRARD_STEPS_PER_S,
        seconds,
        minimum=2,
    )
    res.calib_ref_ms += GATHER_REF_MS
    calibrate(gather=True)  # allocates its arrays before the solver's

    def hooks():
        h = ProfilingHooks()
        if tracer is not None:
            h.subscribe(HookSpans(tracer))
        return h

    # Set-up = initial conditions + the first step, whose neighbor build
    # every fresh simulation pays once.  The repeats replay it to check
    # bitwise determinism; the timed steps continue the last one.
    warm_digests, replay_digest, sim = [], None, None
    for i in range(SETUP_REPEATS):
        sim = None
        t = time.perf_counter()
        sim = _build_sph(case, seed, SPH_N_SIDE, EVRARD_N, hooks())
        warm_stats = sim.step()
        res.setup_times.append(time.perf_counter() - t)
        res.calib.append(calibrate(gather=True))
        res.attempted += 1
        warm_digests.append(_digest(sim.ps))
        if i == 0:
            sim.step()
            res.attempted += 1
            replay_digest = _digest(sim.ps)
    res.check(
        "warm-up step bitwise repeatable",
        len(set(warm_digests)) == 1,
        f"{len(set(warm_digests))} distinct digests",
    )

    ps, prop = sim.ps, sim.propagator
    mass0 = ps.mass.copy()
    e0 = warm_stats.totals.total_energy
    builds0 = prop.neighbor_list.n_builds
    res.info.update(
        particles=ps.n, steps=steps, engine=prop.engine, accel=prop.accel,
        compiled_fast_path=prop._cfast is not None,
    )
    before = tracer.snapshot() if tracer is not None else {}
    step_times, neighbors, stats = [], [], None
    for i in range(steps):
        res.attempted += 1
        t = time.perf_counter()
        try:
            stats = sim.step()
        except Exception as exc:  # a failed step ends the run, counted
            res.failed += 1
            res.check("steps complete", False, repr(exc))
            break
        step_times.append(time.perf_counter() - t)
        res.calib.append(calibrate(gather=True))
        neighbors.append(stats.mean_neighbors)
        if i == 0:
            res.check(
                "first timed step matches replay",
                _digest(ps) == replay_digest,
                "digest differs from the replayed set-up",
            )
    res.timed_s = sum(step_times)
    if not step_times:
        return

    res.check("mass conserved exactly", np.array_equal(ps.mass, mass0))
    finite = all(
        np.isfinite(getattr(ps, f)).all() for f in ("pos", "vel", "u", "h", "rho")
    )
    res.check("state finite", finite)
    if case == "sph_evrard":
        drift = abs(stats.totals.total_energy - e0) / abs(e0)
        res.check(
            f"total energy drift <= {EVRARD_ENERGY_RTOL}",
            drift <= EVRARD_ENERGY_RTOL,
            f"drift {drift:.3e}",
        )
    ref = json.loads((HERE / "reference.json").read_text())[case]
    got = _reference_state(case)
    err = {
        k: abs(got[k] - v) / max(abs(v), REFERENCE_FLOOR) for k, v in ref.items()
    }
    worst = max(err, key=err.get)
    res.check(
        f"512-particle reference run within {REFERENCE_RTOL:g}",
        err[worst] <= REFERENCE_RTOL,
        f"{worst}: relative error {err[worst]:.3e}",
    )

    pstep = len(step_times) * ps.n
    res.e2e["us_per_item"] = res.timed_s / pstep * 1e6
    res.e2e["latency_p50_ms"] = _percentile(step_times, 50) * 1e3
    res.info["raw_latency_p95_ms"] = _percentile(step_times, 95) * 1e3
    res.info["latency_samples"] = len(step_times)
    res.info["neighbor_builds"] = prop.neighbor_list.n_builds - builds0

    if tracer is None:
        return
    spans = diff(tracer.snapshot(), before)

    def per_pstep(*regions: str) -> float:
        self_s = sum(spans.get("sph." + r, (0, 0.0, 0.0))[2] for r in regions)
        return self_s / pstep * 1e6

    named = {
        "find_neighbors": ("FindNeighbors",),
        "iad": ("IADVelocityDivCurl",),
        "momentum_energy": ("MomentumEnergy",),
        "driving": ("TurbulenceDriving",),
        "gravity": ("Gravity",),
    }
    for key, regions in named.items():
        res.layers[f"sph.{key}_us_per_particle_step"] = per_pstep(*regions)
    res.layers["sph.other_us_per_particle_step"] = res.e2e["us_per_item"] - sum(
        per_pstep(*r) for r in named.values()
    )
    res.layers["sph.neighbor_builds_per_step"] = (
        res.info["neighbor_builds"] / len(step_times)
    )
    res.layers["sph.mean_neighbors"] = float(np.mean(neighbors))


# -- campaign ----------------------------------------------------------------


def campaign_keys(seed: int) -> tuple:
    """The sweep: two metered systems x both cases x 2 seeds, static and
    governed, plus miniHPC at three clocks."""
    from repro.campaign.keys import RunKey, resolve_test_case

    keys = []
    cases = ("Subsonic Turbulence", "Evrard Collapse")
    for system in ("LUMI-G", "CSCS-A100"):
        for case in cases:
            ppr = resolve_test_case(case).particles_per_gpu
            for s in (seed, seed + 1):
                for governor in (None, "min-edp"):
                    keys.append(
                        RunKey(system, case, 8, None, CAMPAIGN_KEY_STEPS, ppr, s,
                               governor)
                    )
    for i, mhz in enumerate((1005.0, 1185.0, 1410.0)):
        case = cases[i % 2]
        ppr = resolve_test_case(case).particles_per_gpu
        keys.append(RunKey("miniHPC", case, 2, mhz, CAMPAIGN_KEY_STEPS, ppr, seed))
    return tuple(keys)


def _same_result(a, b) -> bool:
    """Equal accounting and equal measurements (field order aside)."""
    return a.accounting == b.accounting and json.loads(
        a.run.to_json()
    ) == json.loads(b.run.to_json())


def run_campaign(seed: int, seconds: float, tracer, res: Result, scratch: Path) -> None:
    from repro.campaign.executor import execute
    from repro.campaign.keys import RunKey, resolve_test_case
    from repro.campaign.store import ResultStore
    from tracer import accumulate, diff

    keys = campaign_keys(seed)
    warm_passes = _work(CAMPAIGN_WARM_PASSES_PER_S, seconds)
    res.info.update(keys=len(keys), key_steps=CAMPAIGN_KEY_STEPS,
                    warm_passes=warm_passes)

    def run(keys_, store):
        """execute() under strict audit; failures are counted per key."""
        res.attempted += len(keys_)
        try:
            out, stats = execute(keys_, store=store, workers=1, audit="strict")
        except Exception as exc:
            stats = getattr(exc, "stats", None)
            res.failed += stats.failed if stats and stats.failed else len(keys_)
            res.check("campaign keys complete", False, repr(exc)[:300])
            return None, None
        return out, stats

    # Set-up: one governed warm-up key outside the sweep, into a fresh
    # store.  Its repeats, each into a fresh store too, are interleaved
    # with the cold pass: the host's speed drifts within a run, and
    # repeats spread over the run drift with the calibrations that scale
    # them.  They must agree bitwise.
    case = "Subsonic Turbulence"
    warm_key = RunKey("LUMI-G", case, 8, None, CAMPAIGN_KEY_STEPS,
                      resolve_test_case(case).particles_per_gpu,
                      CAMPAIGN_WARMUP_SEED, "min-edp")
    warmups = []

    def set_up() -> bool:
        t = time.perf_counter()
        out, _ = run((warm_key,), ResultStore(scratch / f"warmup{len(warmups)}"))
        res.setup_times.append(time.perf_counter() - t)
        res.calib.append(calibrate())
        if out is None:
            return False
        warmups.append(out[warm_key])
        return True

    if not set_up():
        return

    # The cold pass runs key by key into one fresh store, so that the
    # host-speed calibration can run between keys.
    store = ResultStore(scratch / "sweep")
    cold_ms, cold, cold_spans = [], {}, {}
    for i, key in enumerate(keys, 1):
        before = tracer.snapshot() if tracer is not None else {}
        t = time.perf_counter()
        out, stats = run((key,), store)
        cold_ms.append((time.perf_counter() - t) * 1e3)
        if tracer is not None:
            accumulate(cold_spans, diff(tracer.snapshot(), before))
        if out is None:
            return
        res.check(
            "cold key executes, audit clean",
            stats.misses == 1 and stats.audit_findings == 0
            and stats.executed_steps == CAMPAIGN_KEY_STEPS,
            f"{key.label}: misses={stats.misses} "
            f"findings={stats.audit_findings} steps={stats.executed_steps}",
        )
        cold[key] = out[key]
        res.calib.append(calibrate())
        if i % CAMPAIGN_SETUP_EVERY == 0 and not set_up():
            return

    # Warm passes re-request the whole sweep.  A pass, not a single key,
    # is the latency-bearing operation: single-key times cluster by
    # system (0.6 / 1.4 / 2.3 ms) and their median falls on a cluster
    # edge, where it jumps between runs.
    mid = tracer.snapshot() if tracer is not None else {}
    warm_ms, warm_bad, warm_calib = [], [], []
    for w in range(warm_passes):
        t = time.perf_counter()
        out, stats = run(keys, store)
        warm_ms.append((time.perf_counter() - t) * 1e3 / len(keys))
        if out is None:
            return
        ok = stats.hits == len(keys) and stats.executed_steps == 0
        ok = ok and stats.audit_findings == 0
        ok = ok and all(out[k].accounting == cold[k].accounting for k in keys)
        if w == 0:
            ok = ok and all(_same_result(out[k], cold[k]) for k in keys)
        if not ok:
            warm_bad.append(f"pass {w}")
        warm_calib.append(calibrate())
    warm_spans = diff(tracer.snapshot(), mid) if tracer is not None else {}
    res.check("warm-up key bitwise repeatable across fresh stores",
              all(_same_result(w, warmups[0]) for w in warmups))
    res.check("warm passes hit, execute 0 steps, audit clean, equal cold",
              not warm_bad, "; ".join(warm_bad[:3]))
    res.timed_s = (sum(cold_ms) + sum(warm_ms) * len(keys)) / 1e3

    res.e2e["us_per_item"] = statistics.fmean(cold_ms) * 1e3
    # The warm passes are short: scale them by the host speed measured
    # during them, not by the cold pass's.
    warm_scale = statistics.median(res.calib) / statistics.median(warm_calib)
    res.e2e["latency_p50_ms"] = _percentile(warm_ms, 50) * warm_scale
    res.info["raw_latency_p95_ms"] = _percentile(warm_ms, 95)
    res.info["warm_calib_ms"] = statistics.median(warm_calib) * 1e3
    res.info["latency_samples"] = len(warm_ms)
    res.info["warm_ms_per_key_mean"] = statistics.fmean(warm_ms)
    res.info["cold_ms_per_key_mean"] = statistics.fmean(cold_ms)
    entries = store.entries()
    entry_kb = sum(p.stat().st_size for p in entries) / len(entries) / 1e3

    if tracer is None:
        return
    n_cold = len(keys)

    def calls(spans, name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(spans, *names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def mean_total(spans, name):
        c, total, _ = spans.get(name, (0, 0.0, 0.0))
        return total / c if c else 0.0

    L = res.layers
    L["sensors.sysfs_reads_per_key"] = calls(cold_spans, "sysfs.read") / n_cold
    L["sensors.sysfs_read_self_us"] = self_s(cold_spans, "sysfs.read") / n_cold * 1e6
    L["pmt.reads_per_key"] = calls(cold_spans, "pmt.read") / n_cold
    L["pmt.read_self_us"] = self_s(cold_spans, "pmt.read") / n_cold * 1e6
    L["instrumentation.region_ends_per_key"] = (
        calls(cold_spans, "profiler.end") / n_cold
    )
    L["instrumentation.end_self_us"] = self_s(cold_spans, "profiler.end") / n_cold * 1e6
    L["instrumentation.begin_self_us"] = (
        self_s(cold_spans, "profiler.begin") / n_cold * 1e6
    )
    L["mpi.run_phase_self_ms_per_key"] = (
        self_s(cold_spans, "mpi.run_phase") / n_cold * 1e3
    )
    L["hardware.clock_advance_self_us"] = (
        self_s(cold_spans, "clock.advance_to") / n_cold * 1e6
    )
    L["tuning.governor_self_ms_per_key"] = (
        self_s(cold_spans, "governor.observe_region", "governor.on_tick")
        / n_cold * 1e3
    )
    L["campaign.execute_key_self_ms"] = (
        self_s(cold_spans, "campaign.execute_key") / n_cold * 1e3
    )
    L["campaign.put_ms"] = mean_total(cold_spans, "store.put") * 1e3
    L["campaign.entry_kb"] = entry_kb
    store_ops = sum(
        calls(s, n) for s in (cold_spans, warm_spans)
        for n in ("store.put", "store.lookup")
    )
    L["campaign.store_ops_per_key"] = store_ops / (n_cold * (1 + warm_passes))
    L["campaign.lookup_ms"] = mean_total(warm_spans, "store.lookup") * 1e3
    L["audit.campaign_result_ms"] = (
        mean_total(warm_spans, "audit.campaign_result") * 1e3
    )
    L["campaign.key_hash_us"] = mean_total(warm_spans, "campaign.key_hash") * 1e6


def trace_campaign(tracer) -> None:
    from repro.audit import hooks as audit_hooks
    from repro.campaign import executor, keys, queue, store
    from repro.hardware.clock import VirtualClock
    from repro.instrumentation.profiler import EnergyProfiler
    from repro.mpi.engine import SpmdEngine
    from repro.pmt.base import PMT
    from repro.sensors.sysfs import VirtualSysfs
    from repro.tuning.governor import EnergyAwareGovernor
    from tracer import wrap

    wrap(tracer, VirtualSysfs, "read", "sysfs.read")
    wrap(tracer, PMT, "read", "pmt.read")
    wrap(tracer, EnergyProfiler, "begin", "profiler.begin")
    wrap(tracer, EnergyProfiler, "end", "profiler.end")
    wrap(tracer, SpmdEngine, "run_phase", "mpi.run_phase")
    wrap(tracer, VirtualClock, "advance_to", "clock.advance_to")
    wrap(tracer, EnergyAwareGovernor, "observe_region", "governor.observe_region")
    wrap(tracer, EnergyAwareGovernor, "on_tick", "governor.on_tick")
    wrap(tracer, executor, "execute_key", "campaign.execute_key")
    wrap(tracer, store.ResultStore, "put", "store.put")
    wrap(tracer, store.ResultStore, "lookup", "store.lookup")
    wrap(tracer, audit_hooks, "audit_campaign_result", "audit.campaign_result")
    wrap(tracer, keys, "run_key_hash", "campaign.key_hash",
         owners=(executor, queue, store))


# -- telemetry service -------------------------------------------------------


def _start_loadgen(handle, tenant: str, seed: int, trace: bool):
    """Start the load generator; returns it once its frames are encoded."""
    cmd = [sys.executable, str(HERE / "loadgen.py"), handle.host,
           str(handle.port), str(handle.http_port), tenant, str(seed),
           str(int(trace))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline().strip() == "ready"
    return proc, ready


def _finish_loadgen(proc) -> dict | None:
    """The generator's JSON result, or None when it failed or timed out."""
    try:
        out, _ = proc.communicate(timeout=LOADGEN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def run_service(seed: int, seconds: float, tracer, res: Result) -> None:
    from loadgen import BATCH, NODES, ROUNDS
    from repro.service.server import ServiceThread, TelemetryService
    from repro.service.tenants import TenantRegistry
    from tracer import accumulate, diff

    episodes = _work(SERVICE_EPISODES_PER_S, seconds)
    tenant = f"bench{seed}"
    samples = ROUNDS * NODES * BATCH
    res.info.update(episodes=episodes, nodes=NODES, rounds=ROUNDS,
                    batch_samples=BATCH, samples_per_episode=samples)
    us_per_sample, p50s, p95s, queries = [], [], [], 0
    server_spans, encode_spans, client_spans = {}, {}, {}
    frame_bytes = 0
    for e in range(episodes):
        res.calib.append(calibrate())
        # Set-up: service start, load-generator start, frame pre-encoding.
        t = time.perf_counter()
        registry = TenantRegistry()
        handle = ServiceThread(TelemetryService(registry=registry))
        handle.start()
        proc, out = None, None
        try:
            proc, ready = _start_loadgen(handle, tenant, seed, tracer is not None)
            res.setup_times.append(time.perf_counter() - t)
            before = tracer.snapshot() if tracer is not None else {}
            out = _finish_loadgen(proc) if ready else None
            if tracer is not None:
                accumulate(server_spans, diff(tracer.snapshot(), before))
            ledger = registry.get(tenant).snapshot() if tenant in registry else {}
        finally:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
            handle.stop()
        if out is None:
            res.failed += 1
            res.check("load generator completes", False,
                      f"exit code {proc.returncode if proc else None}")
            return
        accumulate(encode_spans, out["encode_spans"])
        accumulate(client_spans, diff(out["stream_spans"], out["encode_spans"]))
        frame_bytes = out["frame_bytes"]
        elapsed, ep_lat, failures = (
            out["elapsed_s"], out["latencies_s"], out["failures"]
        )
        res.timed_s += elapsed
        mismatches = out["read_back_mismatches"]
        res.attempted += (
            ROUNDS * NODES + len(ep_lat) + len(failures) + out["read_back_nodes"]
        )
        res.failed += (
            len(failures) + len(mismatches)
            + ledger["batches_rejected"] + ledger["batches_shed"]
        )
        identity = ledger["samples_offered"] == (
            ledger["samples_ingested"] + ledger["samples_shed"]
            + ledger["samples_rejected"] + ledger["pending_samples"]
        )
        res.check("offered == ingested + shed + rejected + pending", identity,
                  json.dumps(ledger))
        res.check("no sheds in wait mode", ledger["samples_shed"] == 0)
        res.check("ingested == published",
                  ledger["samples_ingested"] == out["published_samples"] == samples,
                  f"{ledger['samples_ingested']} vs {out['published_samples']}")
        res.check("every query well-formed", not failures, "; ".join(failures[:3]))
        res.check("queries ran during ingest", len(ep_lat) > 0)
        res.check("full-range read-back equals the published samples",
                  not mismatches, "; ".join(mismatches[:3]))
        us_per_sample.append(elapsed / samples * 1e6)
        res.calib.append(calibrate())
        # Percentiles per episode, then their mean.  The host runs a whole
        # episode fast or slow (query p50 about 3 or 5 ms, ingest about
        # 480k or 290k samples/s), so a median over episodes or over all
        # queries snaps to one mode or the other; the mean moves with the
        # share of slow episodes.
        if ep_lat:
            p50s.append(_percentile(ep_lat, 50))
            p95s.append(_percentile(ep_lat, 95))
        queries += len(ep_lat)
        log(f"  episode {e}: {samples / elapsed:,.0f} samples/s, "
            f"{len(ep_lat)} queries")

    res.e2e["us_per_item"] = res.timed_s / (samples * episodes) * 1e6
    res.e2e["latency_p50_ms"] = statistics.fmean(p50s) * 1e3
    res.info["raw_latency_p95_ms"] = statistics.fmean(p95s) * 1e3
    res.info["latency_samples"] = queries
    res.info["raw_latency_p50_ms_per_episode"] = [round(v * 1e3, 3) for v in p50s]
    res.info["ingest_samples_per_s"] = [round(1e6 / v) for v in us_per_sample]

    if tracer is None:
        return

    def per_call(spans, name, scale=1e6):
        c, total, _ = spans.get(name, (0, 0.0, 0.0))
        return total / c * scale if c else 0.0

    def total(spans, name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    batches = ROUNDS * NODES * episodes
    frames = tracer.counts.get("service.decode", 0)
    L = res.layers
    L["service.encode_us_per_batch"] = per_call(
        encode_spans, "service.encode_frame"
    )
    L["service.publish_us_per_batch"] = (
        total(client_spans, "service.publish_encoded")
        + total(client_spans, "service.sync")
    ) / batches * 1e6
    L["service.decode_us_per_frame"] = (
        total(server_spans, "service.decode") / frames * 1e6 if frames else 0.0
    )
    L["service.frames_decoded"] = frames / episodes
    L["service.parse_batch_us"] = per_call(server_spans, "service.parse_batch")
    L["service.offer_us_per_batch"] = per_call(server_spans, "service.offer")
    L["service.drain_ns_per_sample"] = (
        total(server_spans, "service.drain") / (samples * episodes) * 1e9
    )
    L["service.bytes_per_sample"] = frame_bytes / samples
    L["timeseries.range_query_us"] = per_call(
        server_spans, "timeseries.range_query"
    )


def trace_service(tracer) -> None:
    from repro.service import protocol
    from repro.service.tenants import Tenant
    from repro.timeseries.store import ChannelSeries
    from tracer import wrap

    wrap(tracer, protocol.FrameDecoder, "feed", "service.decode", count=len)
    wrap(tracer, protocol, "parse_batch", "service.parse_batch")
    wrap(tracer, Tenant, "offer", "service.offer")
    wrap(tracer, Tenant, "drain", "service.drain")
    wrap(tracer, ChannelSeries, "range_query", "timeseries.range_query")


# -- entry point -------------------------------------------------------------

_SPH_STACK = (
    "numpy", "numpy.random", "repro.sph.propagator", "repro.sph.driving",
    "repro.sph.initial_conditions",
)
#: Every module each workload's stack loads, lazily ones included, imported
#: before the set-up so that their import counts once, in ``setup_s``.
STACKS = {
    "sph_turbulence": _SPH_STACK,
    "sph_evrard": _SPH_STACK,
    "campaign_sweep": (
        "numpy", "numpy.random", "repro.campaign.executor",
        "repro.experiments.runner", "repro.audit.hooks", "repro.tuning",
        "repro.timeseries",
    ),
    "service_ingest_query": ("numpy", "numpy.ma", "repro.service.server"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="epoch seconds at which the parent spawned us")
    args = parser.parse_args()

    if args.workload not in STACKS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    # The imports a user of this workload's stack pays, timed from spawn.
    for module in STACKS[args.workload]:
        importlib.import_module(module)
    import_s = time.time() - args.t0
    res = Result()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        if args.workload == "campaign_sweep":
            trace_campaign(tracer)
        elif args.workload == "service_ingest_query":
            trace_service(tracer)

    args.scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload in ("sph_turbulence", "sph_evrard"):
            run_sph(args.workload, args.seed, args.seconds, tracer, res)
        elif args.workload == "campaign_sweep":
            run_campaign(args.seed, args.seconds, tracer, res, args.scratch)
        else:
            run_service(args.seed, args.seconds, tracer, res)
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)

    if res.setup_times:  # empty only when the first set-up failed
        res.e2e["setup_s"] = import_s + statistics.median(res.setup_times)
    res.e2e["peak_rss_mb"] = _peak_rss_mb()
    res.info["setup_repeats_s"] = [round(v, 4) for v in res.setup_times]
    res.info["import_s"] = import_s
    res.info["timed_s"] = res.timed_s
    if res.calib:
        calib_ms = statistics.median(res.calib) * 1e3
        res.info["calib_ms"] = calib_ms
        res.layers["host.calib_ms"] = calib_ms
        scale = res.calib_ref_ms / calib_ms
        if "setup_s" in res.e2e:
            res.info["raw_setup_s"] = res.e2e["setup_s"]
            res.e2e["setup_s"] *= scale
        for name in ("us_per_item", "latency_p50_ms"):
            if name in res.e2e:
                raw = res.e2e.pop(name)
                res.info[f"raw_{name}"] = raw
                res.e2e[f"{name}_norm"] = raw * scale
    if tracer is not None:
        res.layers["setup.import_s"] = import_s
        res.layers["setup.repeat_s"] = statistics.median(res.setup_times or [0.0])
        res.info["spans"] = tracer.num_spans
        out = args.scratch.parent / f"trace-{args.workload}.npz"
        tracer.write(out)
        res.info["trace_file"] = str(out)

    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "e2e": res.e2e,
        "layers": res.layers,
        "checks": res.checks,
        "info": res.info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
