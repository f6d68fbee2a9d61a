"""Ablation: neighbor-engine scaling of the CSR engine.

Sweeps the particle count on the turbulence box up to N = 125000 and
reports the achieved steps/sec and the peak Python-side allocation of
one full propagator step (tracemalloc).  The recorded reference point is
the retired half-pair engine's baseline at N = 27^3 = 19683 (0.347
steps/s, kept as history; that engine no longer exists); the CSR engine
must hold at least half that number.
"""

import time
import tracemalloc

import numpy as np
from conftest import write_result

from repro.sph.driving import TurbulenceDriver
from repro.sph.hooks import ProfilingHooks
from repro.sph.initial_conditions import make_turbulence
from repro.sph.propagator import Propagator

#: PR-1's recorded throughput at N = 27^3 on this protocol (steps/s).
BASELINE_PR1_STEPS_PER_SEC = 0.347
BASELINE_N_SIDE = 27

#: Full-sweep sizes (cubes, so the lattice stays uniform).
N_SIDES = (12, 27, 50)

#: Allocation ceiling for one smoke-sized CSR step (tracemalloc peak).
#: The measured peak is ~35 MiB: the Verlet list's kept entries (~16 MiB),
#: the step's seven memoized per-entry kernel columns (~11 MiB) and the
#: kernel loops' block-sized scratch (~4 MiB); the streamed candidate
#: blocks and filter chunks add only a few MiB.  The budget is that peak
#: plus ~13 MiB (about a third, or eight per-entry columns), so a
#: regression past it means a new unbounded temporary slipped into the
#: hot path.
SMOKE_ALLOC_BUDGET_BYTES = 48 * 2**20

#: Verlet skin for this sweep, tuned on the 27^3 box when a compiled
#: filter (since retired) made per-step queries cheap relative to
#: rebuilds.  Pair sets and physics are skin independent — every query
#: re-filters to the exact cutoff.
SKIN_FACTOR = 0.45


def _setup(n_side: int):
    """The PR-1 baseline protocol: driven turbulence, no synthetic noise."""
    ps, box = make_turbulence(n_side=n_side, seed=3)
    return ps, box, TurbulenceDriver(box, seed=1)


def _propagator(box, driver, skin_factor=SKIN_FACTOR) -> Propagator:
    return Propagator(box, driver=driver, skin_factor=skin_factor)


def _throughput(n_side: int, *, warmup: int, steps: int):
    """steps/s over ``steps`` timed steps after ``warmup`` untimed ones."""
    ps, box, driver = _setup(n_side)
    prop = _propagator(box, driver)
    hooks = ProfilingHooks()
    for _ in range(warmup):
        prop.step(ps, hooks)
    t0 = time.perf_counter()
    for _ in range(steps):
        prop.step(ps, hooks)
    elapsed = time.perf_counter() - t0
    return steps / elapsed


def _peak_alloc(n_side: int) -> int:
    """tracemalloc peak of one cold propagator step (list build + physics)."""
    ps, box, driver = _setup(n_side)
    prop = _propagator(box, driver)
    hooks = ProfilingHooks()
    tracemalloc.start()
    prop.step(ps, hooks)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def bench_neighbor_scaling(results_dir):
    lines = [
        "neighbor-engine scaling: driven turbulence, steps/s and peak "
        "step allocation",
        f"protocol: PR-1 baseline conditions (driver seed 1, IC seed 3), "
        f"skin_factor={SKIN_FACTOR}",
        f"PR-1 baseline: {BASELINE_PR1_STEPS_PER_SEC:.3f} steps/s at "
        f"N={BASELINE_N_SIDE ** 3} (retired half-pair engine)",
        f"{'engine':>9} {'N':>8} {'steps/s':>9} {'peak MiB':>9}",
    ]
    at_target = None
    for n_side in N_SIDES:
        n = n_side**3
        # Fewer timed steps at the big size: one step is seconds there
        # and the variance we care about is at 27^3, where the window is
        # long enough to amortize list rebuilds.
        steps = 15 if n <= 27**3 else 3
        warmup = 2 if n <= 27**3 else 1
        sps = _throughput(n_side, warmup=warmup, steps=steps)
        peak = _peak_alloc(n_side)
        lines.append(f"{'csr':>9} {n:>8} {sps:>9.3f} {peak / 2**20:>9.1f}")
        if n_side == BASELINE_N_SIDE:
            at_target = sps
    # The CSR engine must at least hold half the baseline.
    assert at_target > 0.5 * BASELINE_PR1_STEPS_PER_SEC
    write_result(results_dir, "ablation_neighbor_scaling", "\n".join(lines))


def bench_smoke_neighbor_scaling(results_dir):
    """CI-sized variant: deterministic quantities plus the allocation gate.

    Wall-clock throughput stays in the full run.  The skin-cached run is
    checked against a fresh search every step (``skin_factor=0``).  The
    tracemalloc assertion is the allocation-regression gate: the engine's
    step footprint is budgeted, not just its speed.
    """
    lines = ["neighbor-engine smoke: turbulence, skin cache agrees with "
             "fresh search, allocation within budget"]
    for n_side in (8, 12):
        finals = {}
        for skin in (SKIN_FACTOR, 0.0):
            ps, box, driver = _setup(n_side)
            prop = _propagator(box, driver, skin_factor=skin)
            hooks = ProfilingHooks()
            stats = None
            for _ in range(3):
                stats = prop.step(ps, hooks)
            finals[skin] = (ps, stats)
        ps_c, stats_c = finals[SKIN_FACTOR]
        ps_f, stats_f = finals[0.0]
        # Same pair sets, same physics (<= 1e-12 of the oracle either way).
        assert stats_f.n_pairs == stats_c.n_pairs
        for field in ("pos", "vel", "u", "rho"):
            a, b = getattr(ps_f, field), getattr(ps_c, field)
            scale = max(float(np.max(np.abs(a))), 1e-300)
            assert float(np.max(np.abs(a - b))) / scale < 1e-12
        energy = float(np.sum(ps_c.mass * ps_c.u))
        lines.append(
            f"N={n_side ** 3}: pairs={stats_c.n_pairs} "
            f"energy={energy:.9e} cache-agrees=yes"
        )
    peak = _peak_alloc(12)
    assert peak < SMOKE_ALLOC_BUDGET_BYTES, (
        f"CSR step peak allocation {peak / 2**20:.0f} MiB exceeds the "
        f"{SMOKE_ALLOC_BUDGET_BYTES / 2**20:.0f} MiB budget"
    )
    lines.append(
        f"csr step peak allocation within "
        f"{SMOKE_ALLOC_BUDGET_BYTES / 2**20:.0f} MiB budget: yes"
    )
    write_result(
        results_dir, "ablation_neighbor_scaling_smoke", "\n".join(lines)
    )
