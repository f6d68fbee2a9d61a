"""Campaign engine: cache-hit speedup and serial≡parallel equality.

The acceptance properties of the campaign engine:

* a repeated sweep is pure cache hits — zero simulation steps executed
  and at least a 5x wall-clock speedup over the cold sweep;
* a ``workers=4`` sweep (four local lease-queue workers) merges
  bit-identically (energies, EDP, rendered tables) to the serial
  ``workers=1`` sweep;
* a killed sweep resumes: pre-populating part of the cache leaves only
  the missing points to execute.

The result file records only deterministic quantities (point counts,
steps, the merged EDP table) so the determinism CI gate can diff it;
wall-clock timings are asserted, not persisted.
"""

from __future__ import annotations

import time

from conftest import write_result

from repro.campaign import ResultStore, execute, expand
from repro.campaign.merge import merge_figure4
from repro.experiments.frequency import BASELINE_MHZ, figure4_spec

CUBE_SIDES = (100, 140)
FREQS_MHZ = (1410.0, 1230.0, 1005.0)
NUM_STEPS = 8
SPEEDUP_FLOOR = 5.0


def _spec():
    return figure4_spec(
        cube_sides=CUBE_SIDES, freqs_mhz=FREQS_MHZ, num_steps=NUM_STEPS
    )


def bench_smoke_campaign(results_dir, tmp_path):
    """Fig. 4 sweep on the campaign engine (`make bench-smoke`)."""
    keys = expand(_spec())
    store = ResultStore(tmp_path / "cache")

    # Serial reference sweep (workers=1, no cache).
    serial, serial_stats = execute(keys, workers=1)
    assert serial_stats.misses == len(keys)

    # Parallel cold sweep, populating the cache.
    t0 = time.perf_counter()
    sharded, cold_stats = execute(keys, store=store, workers=4)
    cold_seconds = time.perf_counter() - t0
    assert cold_stats.misses == len(keys)
    assert cold_stats.executed_steps == NUM_STEPS * len(keys)

    # Bit-identical: every archived float, and the merged figure.
    assert sharded == serial, "sharded sweep diverged from serial"
    serial_fig = merge_figure4(serial, BASELINE_MHZ)
    sharded_fig = merge_figure4(sharded, BASELINE_MHZ)
    assert sharded_fig == serial_fig

    # Repeated sweep: all hits, zero steps, >= 5x faster.
    t0 = time.perf_counter()
    warm, warm_stats = execute(keys, store=store, workers=4)
    warm_seconds = time.perf_counter() - t0
    assert warm_stats.hits == len(keys)
    assert warm_stats.executed_steps == 0, (
        "a fully-cached campaign must execute zero simulation steps"
    )
    assert warm == serial
    speedup = cold_seconds / warm_seconds
    assert speedup >= SPEEDUP_FLOOR, (
        f"cache-hit sweep only {speedup:.1f}x faster than cold "
        f"({cold_seconds:.3f}s -> {warm_seconds:.3f}s)"
    )

    # Resume: half the cache gone, only the misses execute.
    removed = store.clean(keys[: len(keys) // 2])
    assert removed == len(keys) // 2
    resumed, resume_stats = execute(keys, store=store, workers=4)
    assert resume_stats.misses == removed
    assert resume_stats.hits == len(keys) - removed
    assert resumed == serial

    lines = [
        f"Campaign smoke: Fig. 4 sweep, {len(keys)} points "
        f"(sides {CUBE_SIDES}, {len(FREQS_MHZ)} freqs, {NUM_STEPS} steps)",
        f"cold sweep: {cold_stats.misses} executed, "
        f"{cold_stats.executed_steps} steps",
        f"warm sweep: {warm_stats.hits} cache hits, 0 steps",
        f"resume after dropping {removed}: {resume_stats.misses} executed, "
        f"{resume_stats.hits} hits",
        "serial == sharded(workers=4) == cached: bit-identical",
        "",
        "Normalized EDP (baseline 1410 MHz):",
        "side^3  " + " ".join(f"{f:>7.0f}" for f in FREQS_MHZ),
    ]
    for side in CUBE_SIDES:
        norm = serial_fig[side]
        lines.append(
            f"{side:>5}^3 " + " ".join(f"{norm[f]:>7.3f}" for f in FREQS_MHZ)
        )
    write_result(results_dir, "campaign_smoke", "\n".join(lines))
