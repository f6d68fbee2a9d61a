"""Ablation: the step-pipeline pair cache (the CSR engine's Verlet skin).

Sweeps the Verlet skin width of the CSR step engine on a turbulence box
and reports, per skin setting, the achieved steps/sec, undirected pairs
processed per second, and the neighbor-list rebuild fraction.
``skin = 0`` is the pre-cache behaviour (a fresh neighbor search every
step); widening the skin trades a few percent more candidate pairs for
amortizing ``FindNeighbors`` — the dominant cost of the solver step —
across many steps.

The physics is identical for every skin width (the Verlet query re-filters
candidates to the exact per-pair cutoff), which the run asserts.
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
        pairs_done = sum(s.n_pairs for s in history)
        rows.append(
            {
                "skin": skin,
                "steps_per_sec": steps / elapsed,
                "pairs_per_sec": pairs_done / elapsed,
                "rebuild_fraction": prop.neighbor_list.rebuild_fraction,
                "final_u": float(np.sum(ps.mass * ps.u)),
                "n_pairs_last": history[-1].n_pairs,
            }
        )
    return rows


def _check_and_format(rows, n_side, steps):
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

    lines = [
        f"pair-cache ablation: turbulence n={n_side ** 3}, {steps} steps",
        f"{'skin':>6} {'steps/s':>10} {'pairs/s':>12} {'rebuilds':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row['skin']:>6.2f} {row['steps_per_sec']:>10.3f} "
            f"{row['pairs_per_sec']:>12.3e} {row['rebuild_fraction']:>9.2f}"
        )
    best = max(rows, key=lambda r: r["steps_per_sec"])
    lines.append(
        f"best: skin={best['skin']:.2f} at "
        f"{best['steps_per_sec'] / base['steps_per_sec']:.2f}x the "
        "skin=0 throughput"
    )
    return "\n".join(lines)


def bench_pair_cache_ablation(results_dir):
    rows = _sweep(n_side=12, steps=10)
    text = _check_and_format(rows, n_side=12, steps=10)
    write_result(results_dir, "ablation_pair_cache", text)
    # At this size the cached runs should never lose to skin=0 by more
    # than measurement noise.
    base = rows[0]["steps_per_sec"]
    assert max(r["steps_per_sec"] for r in rows[1:]) > 0.9 * base


def bench_smoke_pair_cache(results_dir):
    """Tiny CI-sized variant of the sweep (`make bench-smoke`).

    The smoke result records only the deterministic quantities (rebuild
    fraction, pair counts, final energy) so the determinism CI gate can
    diff it byte-for-byte; wall-clock throughput stays in the full run.
    """
    rows = _sweep(n_side=8, steps=4, skins=(0.0, 0.3))
    base = rows[0]
    assert base["rebuild_fraction"] == 1.0
    for row in rows[1:]:
        assert row["n_pairs_last"] == base["n_pairs_last"]
        assert abs(row["final_u"] - base["final_u"]) <= 1e-9 * abs(
            base["final_u"]
        )
        assert row["rebuild_fraction"] < 1.0

    lines = [
        "pair-cache smoke: turbulence n=512, 4 steps",
        f"{'skin':>6} {'rebuilds':>9} {'last pairs':>11}",
    ]
    for row in rows:
        lines.append(
            f"{row['skin']:>6.2f} {row['rebuild_fraction']:>9.2f} "
            f"{row['n_pairs_last']:>11}"
        )
    lines.append(f"final energy (all skins): {base['final_u']:.9e}")
    write_result(results_dir, "ablation_pair_cache_smoke", "\n".join(lines))
