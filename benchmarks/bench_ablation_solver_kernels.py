"""Ablation/throughput: raw host performance of the real SPH kernels.

pytest-benchmark timings of the numerical building blocks at a fixed
problem size, so regressions in the vectorized implementations are
caught.  These benchmark the *actual solver* (the physics the scaled runs
stand on), not the simulated cluster.

``bench_solver_kernels_table`` writes the committed
``ablation_solver_kernels.txt``: per-kernel timings of the directed
reference kernels plus the whole-step cost of the CSR/SoA engine on one
box.
"""

import time

import numpy as np
import pytest
from conftest import write_result

from repro.sph.gravity import BarnesHutGravity
from repro.sph.hooks import ProfilingHooks
from repro.sph.initial_conditions import make_turbulence
from repro.sph.neighbors import find_neighbors
from repro.sph.physics import (
    compute_density,
    compute_iad_and_divcurl,
    compute_momentum_energy,
    ideal_gas_eos,
)
from repro.sph.propagator import Propagator

N_SIDE = 16  # 4096 particles


@pytest.fixture(scope="module")
def state():
    ps, box = make_turbulence(n_side=N_SIDE, seed=5)
    rng = np.random.default_rng(5)
    ps.vel = rng.normal(0.0, 0.05, size=ps.vel.shape)
    pairs = find_neighbors(ps.pos, ps.h, box)
    ps.nc = pairs.neighbor_counts()
    compute_density(ps, pairs)
    ideal_gas_eos(ps)
    compute_iad_and_divcurl(ps, pairs)
    return ps, box, pairs


def bench_neighbor_search(benchmark, state):
    ps, box, _ = state
    pairs = benchmark(find_neighbors, ps.pos, ps.h, box)
    assert pairs.n_pairs > 0


def bench_density(benchmark, state):
    ps, box, pairs = state
    benchmark(compute_density, ps, pairs)
    assert np.all(ps.rho > 0)


def bench_iad(benchmark, state):
    ps, box, pairs = state
    benchmark(compute_iad_and_divcurl, ps, pairs)


def bench_momentum_energy(benchmark, state):
    ps, box, pairs = state
    benchmark(compute_momentum_energy, ps, pairs)
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
    """The full result: directed reference kernels + CSR engine steps."""
    ps, box = make_turbulence(n_side=N_SIDE, seed=5)
    rng = np.random.default_rng(5)
    ps.vel = rng.normal(0.0, 0.05, size=ps.vel.shape)
    pairs = find_neighbors(ps.pos, ps.h, box)
    ps.nc = pairs.neighbor_counts()
    compute_density(ps, pairs)
    ideal_gas_eos(ps)
    compute_iad_and_divcurl(ps, pairs)

    lines = [
        f"solver kernels: turbulence n={N_SIDE ** 3}, best-of-5 wall "
        "clock (ms)",
        "directed reference kernels:",
        f"  neighbor_search "
        f"{_best_of(lambda: find_neighbors(ps.pos, ps.h, box)):>9.2f}",
        f"  density         "
        f"{_best_of(lambda: compute_density(ps, pairs)):>9.2f}",
        f"  iad+divcurl     "
        f"{_best_of(lambda: compute_iad_and_divcurl(ps, pairs)):>9.2f}",
        f"  momentum+energy "
        f"{_best_of(lambda: compute_momentum_energy(ps, pairs)):>9.2f}",
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
    ps, box = make_turbulence(n_side=8, seed=5)
    rng = np.random.default_rng(5)
    ps.vel = rng.normal(0.0, 0.05, size=ps.vel.shape)
    pairs = find_neighbors(ps.pos, ps.h, box)
    ps.nc = pairs.neighbor_counts()
    compute_density(ps, pairs)
    ideal_gas_eos(ps)
    compute_iad_and_divcurl(ps, pairs)
    compute_momentum_energy(ps, pairs)
    assert pairs.n_pairs > 0
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
        f"neighbor pairs: {pairs.n_pairs}",
        f"mean density: {float(ps.rho.mean()):.6f}",
        f"max |acc|: {float(np.abs(ps.acc).max()):.6e}",
    ]
    write_result(results_dir, "ablation_solver_kernels_smoke", "\n".join(lines))
