"""Ablation: the step-pipeline pair cache (the CSR engine's Verlet skin).

Sweeps the Verlet skin width of the CSR step engine on a turbulence box
and reports, per skin setting, the neighbor-list rebuild fraction and the
last step's pair count, plus the final energy shared by every setting.
``skin = 0`` is the pre-cache behaviour (a fresh neighbor search every
step); widening the skin trades a few percent more candidate pairs for
amortizing ``FindNeighbors`` across many steps.

The physics is identical for every skin width (the Verlet query re-filters
candidates to the exact per-pair cutoff), which the run asserts.  The
committed tables hold only these deterministic columns, so the CI
determinism job can diff them byte for byte; the full run measures the
steps/s of each skin and asserts the cache does not lose to ``skin = 0``,
but prints that host-dependent throughput instead of committing it.
"""

import time

import numpy as np
from conftest import write_result

from repro.sph.initial_conditions import make_turbulence
from repro.sph.propagator import Propagator
from repro.sph.simulation import Simulation

SKIN_FACTORS = (0.0, 0.15, 0.3, 0.5)


def _sweep(n_side: int, steps: int, skins=SKIN_FACTORS):
    rows = []
    for skin in skins:
        ps, box = make_turbulence(n_side=n_side, seed=19)
        rng = np.random.default_rng(19)
        ps.vel = rng.normal(0.0, 0.08, size=ps.vel.shape)
        prop = Propagator(box, skin_factor=skin)
        sim = Simulation(ps, prop)
        t0 = time.perf_counter()
        history = sim.run(steps)
        elapsed = time.perf_counter() - t0
        rows.append(
            {
                "skin": skin,
                "steps_per_sec": steps / elapsed,
                "rebuild_fraction": prop.neighbor_list.rebuild_fraction,
                "final_u": float(np.sum(ps.mass * ps.u)),
                "n_pairs_last": history[-1].n_pairs,
            }
        )
    return rows


def _check(rows):
    base = rows[0]
    assert base["skin"] == 0.0
    assert base["rebuild_fraction"] == 1.0  # no cache without a skin
    for row in rows[1:]:
        # Exactness: the cached runs traverse the same pair sets and land
        # on the same state (round-off-level differences only).
        assert row["n_pairs_last"] == base["n_pairs_last"]
        assert abs(row["final_u"] - base["final_u"]) <= 1e-9 * abs(
            base["final_u"]
        )
        # A skin must actually amortize rebuilds.
        assert row["rebuild_fraction"] < 1.0


def _table(rows, title):
    """The deterministic columns of a sweep (no wall-clock figures)."""
    lines = [title, f"{'skin':>6} {'rebuilds':>9} {'last pairs':>11}"]
    for row in rows:
        lines.append(
            f"{row['skin']:>6.2f} {row['rebuild_fraction']:>9.2f} "
            f"{row['n_pairs_last']:>11}"
        )
    lines.append(f"final energy (all skins): {rows[0]['final_u']:.9e}")
    return "\n".join(lines)


def bench_pair_cache_ablation(results_dir):
    rows = _sweep(n_side=12, steps=10)
    _check(rows)
    text = _table(rows, "pair-cache ablation: turbulence n=1728, 10 steps")
    write_result(results_dir, "ablation_pair_cache", text)
    base = rows[0]["steps_per_sec"]
    for row in rows:
        print(
            f"skin={row['skin']:.2f}: {row['steps_per_sec']:.3f} steps/s, "
            f"{row['steps_per_sec'] / base:.2f}x the skin=0 throughput"
        )
    # At this size the cached runs should never lose to skin=0 by more
    # than measurement noise.
    assert max(r["steps_per_sec"] for r in rows[1:]) > 0.9 * base


def bench_smoke_pair_cache(results_dir):
    """Tiny CI-sized variant of the sweep (`make bench-smoke`)."""
    rows = _sweep(n_side=8, steps=4, skins=(0.0, 0.3))
    _check(rows)
    text = _table(rows, "pair-cache smoke: turbulence n=512, 4 steps")
    write_result(results_dir, "ablation_pair_cache_smoke", text)
