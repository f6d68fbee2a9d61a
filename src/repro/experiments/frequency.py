"""Figures 4 and 5: the effect of GPU frequency down-scaling on EDP.

Run on miniHPC (the only Table 1 system that lets users set GPU
frequencies), Subsonic Turbulence, 91 M particles per GPU (450^3) down to
8 M (200^3), sweeping the compute clock from 1410 MHz to 1005 MHz.

Both figures are *campaigns*: the sweep is declared as a
:class:`~repro.campaign.spec.CampaignSpec`, expanded to independent run
keys, executed on the shared campaign engine (optionally drained by local
worker processes and backed by the content-addressed result cache), and
merged back into the same structures the serial implementations always
returned.  ``workers=1`` without a store is the serial degenerate case.
"""

from __future__ import annotations

from repro.campaign.executor import ProgressFn, execute
from repro.campaign.merge import merge_figure4, merge_figure5
from repro.campaign.spec import CampaignSpec, expand
from repro.campaign.store import ResultStore
from repro.config import (
    A100_SWEEP_FREQS_MHZ,
    MINIHPC,
    SUBSONIC_TURBULENCE,
    SystemConfig,
    TestCaseConfig,
)

#: Particle counts per GPU of Figure 4 (cube sides 200..450).
FIGURE4_CUBE_SIDES = (200, 250, 300, 350, 400, 450)

#: Baseline compute frequency (MHz) the EDPs are normalized to.
BASELINE_MHZ = 1410.0


def particles_of_side(side: int) -> float:
    """Particles per GPU for a ``side^3`` cube."""
    return float(side) ** 3


def figure4_spec(
    cube_sides: tuple[int, ...] = FIGURE4_CUBE_SIDES,
    freqs_mhz: tuple[float, ...] = tuple(float(f) for f in A100_SWEEP_FREQS_MHZ),
    system: SystemConfig = MINIHPC,
    test_case: TestCaseConfig = SUBSONIC_TURBULENCE,
    num_steps: int | None = None,
    seed: int = 0,
) -> CampaignSpec:
    """The Figure 4 sweep as a declarative campaign."""
    return CampaignSpec(
        name="fig4",
        systems=(system.name,),
        test_cases=(test_case.name,),
        card_counts=(system.cards_per_node,),
        freqs_mhz=tuple(float(f) for f in freqs_mhz),
        particles_per_rank=tuple(particles_of_side(s) for s in cube_sides),
        num_steps=num_steps,
        seeds=(seed,),
    )


def figure4_series(
    cube_sides: tuple[int, ...] = FIGURE4_CUBE_SIDES,
    freqs_mhz: tuple[float, ...] = tuple(float(f) for f in A100_SWEEP_FREQS_MHZ),
    system: SystemConfig = MINIHPC,
    test_case: TestCaseConfig = SUBSONIC_TURBULENCE,
    num_steps: int | None = None,
    seed: int = 0,
    workers: int = 1,
    store: ResultStore | None = None,
    progress: ProgressFn | None = None,
) -> dict[int, dict[float, float]]:
    """Normalized whole-run EDP per cube side per frequency.

    Returns ``{side: {MHz: EDP / EDP(1410 MHz)}}``.
    """
    spec = figure4_spec(
        cube_sides=cube_sides,
        freqs_mhz=freqs_mhz,
        system=system,
        test_case=test_case,
        num_steps=num_steps,
        seed=seed,
    )
    results, _ = execute(
        expand(spec), store=store, workers=workers, progress=progress
    )
    return merge_figure4(results, BASELINE_MHZ)


def figure5_spec(
    freqs_mhz: tuple[float, ...] = tuple(float(f) for f in A100_SWEEP_FREQS_MHZ),
    system: SystemConfig = MINIHPC,
    test_case: TestCaseConfig = SUBSONIC_TURBULENCE,
    cube_side: int = 450,
    num_steps: int | None = None,
    seed: int = 0,
) -> CampaignSpec:
    """The Figure 5 sweep as a declarative campaign."""
    return CampaignSpec(
        name="fig5",
        systems=(system.name,),
        test_cases=(test_case.name,),
        card_counts=(system.cards_per_node,),
        freqs_mhz=tuple(float(f) for f in freqs_mhz),
        particles_per_rank=(particles_of_side(cube_side),),
        num_steps=num_steps,
        seeds=(seed,),
    )


def figure5_series(
    freqs_mhz: tuple[float, ...] = tuple(float(f) for f in A100_SWEEP_FREQS_MHZ),
    system: SystemConfig = MINIHPC,
    test_case: TestCaseConfig = SUBSONIC_TURBULENCE,
    cube_side: int = 450,
    num_steps: int | None = None,
    seed: int = 0,
    workers: int = 1,
    store: ResultStore | None = None,
    progress: ProgressFn | None = None,
) -> dict[str, dict[float, float]]:
    """Normalized per-function EDP at 450^3 particles per GPU.

    Returns ``{function: {MHz: EDP / EDP(1410 MHz)}}``.
    """
    spec = figure5_spec(
        freqs_mhz=freqs_mhz,
        system=system,
        test_case=test_case,
        cube_side=cube_side,
        num_steps=num_steps,
        seed=seed,
    )
    results, _ = execute(
        expand(spec), store=store, workers=workers, progress=progress
    )
    return merge_figure5(results, BASELINE_MHZ)


def _edp_table(series: dict, head: str, row_label) -> str:
    """One row per series, one column per frequency (highest first)."""
    freqs = sorted({f for norm in series.values() for f in norm}, reverse=True)
    lines = [head + " ".join(f"{f:>7.0f}" for f in freqs)]
    for row, norm in series.items():
        lines.append(row_label(row) + " ".join(f"{norm[f]:>7.3f}" for f in freqs))
    return "\n".join(lines)


def figure4_table(series: dict[int, dict[float, float]]) -> str:
    """Render Figure 4's normalized EDPs, one row per cube side."""
    return _edp_table(series, "side^3  ", lambda side: f"{side:>5}^3 ")


def figure5_table(series: dict[str, dict[float, float]]) -> str:
    """Render Figure 5's normalized EDPs, one row per function."""
    return _edp_table(series, f"{'Function':>24} ", lambda fn: f"{fn:>24} ")
