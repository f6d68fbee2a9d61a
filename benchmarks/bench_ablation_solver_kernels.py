"""Ablation/throughput: raw host performance of the real SPH kernels.

pytest-benchmark timings of the numerical building blocks at a fixed
problem size, so regressions in the vectorized implementations are
caught.  These benchmark the *actual solver* (the physics the scaled runs
stand on), not the simulated cluster.

``bench_solver_kernels_table`` writes ``ablation_solver_kernels.txt``:
per-kernel timings of the CSR search and of the kernels over its
:class:`~repro.sph.pair_cache.CsrStepContext`, plus the whole-step cost
of the engine on one box.
"""

import time

import numpy as np
import pytest
from conftest import write_result

from repro.sph.gravity import BarnesHutGravity
from repro.sph.hooks import ProfilingHooks
from repro.sph.initial_conditions import make_turbulence
from repro.sph.neighbors import csr_neighbors
from repro.sph.pair_cache import CsrStepContext
from repro.sph.physics import (
    compute_density,
    compute_iad_and_divcurl,
    compute_momentum_energy,
    ideal_gas_eos,
)
from repro.sph.propagator import Propagator

N_SIDE = 16  # 4096 particles


def _prepared(n_side):
    """A turbulence box through IAD, and its step context."""
    ps, box = make_turbulence(n_side=n_side, seed=5)
    rng = np.random.default_rng(5)
    ps.vel = rng.normal(0.0, 0.05, size=ps.vel.shape)
    ctx = CsrStepContext(csr_neighbors(ps.pos, ps.h, box), ps.h)
    ps.nc = ctx.csr.neighbor_counts()
    compute_density(ps, ctx)
    ideal_gas_eos(ps)
    compute_iad_and_divcurl(ps, ctx)
    return ps, box, ctx


def _density(ps, ctx):
    """Density over a fresh context on the same pool, so each call pays
    the kernel evaluation a step's Density region pays (a context
    memoizes it); the values, and so ``ctx``'s memo, are unchanged."""
    compute_density(ps, CsrStepContext(ctx.csr, ps.h, pool=ctx.pool))


@pytest.fixture(scope="module")
def state():
    return _prepared(N_SIDE)


def bench_neighbor_search(benchmark, state):
    ps, box, _ = state
    csr = benchmark(csr_neighbors, ps.pos, ps.h, box)
    assert csr.n_pairs > 0


def bench_density(benchmark, state):
    ps, box, ctx = state
    benchmark(_density, ps, ctx)
    assert np.all(ps.rho > 0)


def bench_iad(benchmark, state):
    ps, box, ctx = state
    benchmark(compute_iad_and_divcurl, ps, ctx)


def bench_momentum_energy(benchmark, state):
    ps, box, ctx = state
    benchmark(compute_momentum_energy, ps, ctx)
    assert np.all(np.isfinite(ps.acc))


def bench_barnes_hut(benchmark):
    rng = np.random.default_rng(11)
    pos = rng.normal(0.0, 1.0, size=(4096, 3))
    mass = np.full(4096, 1.0 / 4096)

    def build_and_evaluate():
        # What the Gravity region runs per step: build, forces, potential.
        tree = BarnesHutGravity(pos, mass, theta=0.6, eps=0.02)
        return tree.acceleration(), tree.potential()

    acc, potential = benchmark(build_and_evaluate)
    assert np.all(np.isfinite(acc))
    assert potential < 0


def _best_of(fn, repeats=5):
    """Best wall-clock of ``repeats`` calls, in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def bench_solver_kernels_table(results_dir):
    """The full result: the engine's kernels + its steady-state step."""
    ps, box, ctx = _prepared(N_SIDE)

    lines = [
        f"solver kernels: turbulence n={N_SIDE ** 3}, best-of-5 wall "
        "clock (ms)",
        "csr engine kernels:",
        f"  neighbor_search "
        f"{_best_of(lambda: csr_neighbors(ps.pos, ps.h, box)):>9.2f}",
        f"  density         "
        f"{_best_of(lambda: _density(ps, ctx)):>9.2f}",
        f"  iad+divcurl     "
        f"{_best_of(lambda: compute_iad_and_divcurl(ps, ctx)):>9.2f}",
        f"  momentum+energy "
        f"{_best_of(lambda: compute_momentum_energy(ps, ctx)):>9.2f}",
    ]

    lines.append("csr engine, steady-state step:")
    ps_e, box_e = make_turbulence(n_side=N_SIDE, seed=5)
    ps_e.vel = np.random.default_rng(5).normal(0.0, 0.05, size=ps_e.vel.shape)
    prop = Propagator(box_e)
    hooks = ProfilingHooks()
    for _ in range(2):  # build the list, warm the pools
        prop.step(ps_e, hooks)
    step_ms = _best_of(lambda: prop.step(ps_e, hooks))
    lines.append(f"  step            {step_ms:>9.2f}")
    write_result(results_dir, "ablation_solver_kernels", "\n".join(lines))


def bench_smoke_solver_kernels(results_dir):
    # Run every kernel once at a small size; correctness only, no timing.
    ps, box, ctx = _prepared(8)
    compute_momentum_energy(ps, ctx)
    assert ctx.nnz > 0
    assert np.all(ps.rho > 0)
    assert np.all(np.isfinite(ps.acc))

    rng = np.random.default_rng(11)
    pos = rng.normal(0.0, 1.0, size=(512, 3))
    mass = np.full(512, 1.0 / 512)
    acc = BarnesHutGravity(pos, mass, theta=0.6, eps=0.02).acceleration()
    assert np.all(np.isfinite(acc))

    lines = [
        "Solver kernel smoke: 512 particles, every kernel runs and stays "
        "finite",
        f"neighbor pairs: {ctx.nnz}",
        f"mean density: {float(ps.rho.mean()):.6f}",
        f"max |acc|: {float(np.abs(ps.acc).max()):.6e}",
    ]
    write_result(results_dir, "ablation_solver_kernels_smoke", "\n".join(lines))
