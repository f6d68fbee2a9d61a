"""Order-independent merges of campaign results into figure structures.

Each merge consumes the ``{RunKey: CampaignResult}`` mapping the executor
returns and produces *exactly* the structure the corresponding serial
experiment function has always returned — iteration is over the sorted
key space, never over completion order, so a sweep drained by any
number of workers merges to the same object as the serial sweep.
"""

from __future__ import annotations

from repro.analysis.edp import function_edp, normalized_edp_series, run_edp
from repro.analysis.validation import ValidationPoint, validate_pmt_against_slurm
from repro.campaign.keys import RunKey, sort_key
from repro.campaign.store import CampaignResult
from repro.errors import AnalysisError


def _sorted_results(
    results: dict[RunKey, CampaignResult],
) -> list[tuple[RunKey, CampaignResult]]:
    return sorted(results.items(), key=lambda item: sort_key(item[0]))


def cube_side_of(particles_per_rank: float) -> int:
    """Invert ``side**3`` particle counts back to the cube side."""
    side = round(particles_per_rank ** (1.0 / 3.0))
    if abs(float(side) ** 3 - particles_per_rank) > 0.5:
        raise AnalysisError(
            f"{particles_per_rank} particles/rank is not a side^3 cube"
        )
    return side


def merge_figure4(
    results: dict[RunKey, CampaignResult], baseline_mhz: float
) -> dict[int, dict[float, float]]:
    """``{side: {MHz: EDP / EDP(baseline)}}`` — Figure 4's structure."""
    by_side: dict[int, dict[float, float]] = {}
    for key, result in _sorted_results(results):
        side = cube_side_of(key.particles_per_rank)
        by_side.setdefault(side, {})[key.gpu_freq_mhz] = run_edp(result.run)
    return {
        side: normalized_edp_series(series, baseline_mhz)
        for side, series in by_side.items()
    }


def merge_figure5(
    results: dict[RunKey, CampaignResult], baseline_mhz: float
) -> dict[str, dict[float, float]]:
    """``{function: {MHz: EDP / EDP(baseline)}}`` — Figure 5's structure."""
    per_freq: dict[float, dict[str, float]] = {}
    for key, result in _sorted_results(results):
        per_freq[key.gpu_freq_mhz] = function_edp(result.run)
    if baseline_mhz not in per_freq:
        raise AnalysisError(
            f"baseline frequency {baseline_mhz!r} missing from campaign "
            f"results {sorted(per_freq)}"
        )
    out: dict[str, dict[float, float]] = {}
    for fn in per_freq[baseline_mhz]:
        series = {freq: edps[fn] for freq, edps in per_freq.items()}
        if series[baseline_mhz] <= 0:
            # Sub-resolution functions (sensor quantization reports zero
            # energy in short runs) cannot be normalized; skip them, as
            # the paper's Figure 5 plots only the time-consuming ones.
            continue
        out[fn] = normalized_edp_series(series, baseline_mhz)
    return out


def merge_figure1(
    results: dict[RunKey, CampaignResult],
) -> list[ValidationPoint]:
    """Figure 1's PMT-vs-Slurm points, ordered by card count."""
    return [
        validate_pmt_against_slurm(
            result.run, result.accounting.to_accounting(result.run), key.num_cards
        )
        for key, result in _sorted_results(results)
    ]


def merge_weak_scaling(results: dict[RunKey, CampaignResult]) -> list:
    """The weak-scaling points, ordered by card count."""
    # Imported here: scaling imports the campaign engine for execution,
    # so a top-level import would be circular.
    from repro.experiments.scaling import WeakScalingPoint, scaling_point

    points: list[WeakScalingPoint] = []
    for key, result in _sorted_results(results):
        points.append(scaling_point(result.run, key.num_cards))
    return points
