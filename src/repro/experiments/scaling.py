"""Weak-scaling study (extension experiment).

The paper runs 8-48 cards at constant particles-per-GPU (weak scaling)
but only reports total energy.  This experiment extracts the quantities a
scaling study cares about: time per step, energy per card, and the
communication share of DomainDecompAndSync — quantifying how close the
simulated runs are to ideal weak scaling and where the deviation comes
from (the log p collectives and growing halo surfaces).

The sweep itself runs on the campaign engine: each card count is one
independent run key, executed serially or by local queue workers and
cached content-addressed, then merged back in card-count order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.aggregate import function_seconds
from repro.analysis.breakdown import device_breakdown
from repro.campaign.executor import ProgressFn, execute
from repro.campaign.merge import merge_weak_scaling
from repro.campaign.spec import CampaignSpec, expand
from repro.campaign.store import ResultStore
from repro.config import SUBSONIC_TURBULENCE, SystemConfig, TestCaseConfig
from repro.instrumentation.records import RunMeasurements


@dataclass(frozen=True)
class WeakScalingPoint:
    """One scale of the weak-scaling sweep."""

    num_cards: int
    num_ranks: int
    seconds_per_step: float
    joules_per_card: float
    total_joules: float
    domain_sync_share: float

    @property
    def label(self) -> str:
        return f"{self.num_cards} cards / {self.num_ranks} ranks"


def scaling_point(run: RunMeasurements, num_cards: int) -> WeakScalingPoint:
    """Extract one card count's scaling quantities from its measurements."""
    total = device_breakdown(run).total_joules
    seconds = function_seconds(run)
    step_time = run.app_seconds / run.num_steps
    domain_share = seconds["DomainDecompAndSync"] / sum(seconds.values())
    return WeakScalingPoint(
        num_cards=num_cards,
        num_ranks=run.num_ranks,
        seconds_per_step=step_time,
        joules_per_card=total / num_cards,
        total_joules=total,
        domain_sync_share=domain_share,
    )


def weak_scaling_spec(
    system: SystemConfig,
    card_counts: tuple[int, ...],
    test_case: TestCaseConfig = SUBSONIC_TURBULENCE,
    num_steps: int | None = None,
    seed: int = 0,
) -> CampaignSpec:
    """The weak-scaling sweep as a declarative campaign."""
    return CampaignSpec(
        name="weak-scaling",
        systems=(system.name,),
        test_cases=(test_case.name,),
        card_counts=tuple(card_counts),
        num_steps=num_steps,
        seeds=(seed,),
    )


def weak_scaling_series(
    system: SystemConfig,
    card_counts: tuple[int, ...],
    test_case: TestCaseConfig = SUBSONIC_TURBULENCE,
    num_steps: int | None = None,
    seed: int = 0,
    workers: int = 1,
    store: ResultStore | None = None,
    progress: ProgressFn | None = None,
) -> list[WeakScalingPoint]:
    """Run the sweep and extract the scaling quantities."""
    spec = weak_scaling_spec(
        system, card_counts, test_case=test_case, num_steps=num_steps, seed=seed
    )
    results, _ = execute(
        expand(spec), store=store, workers=workers, progress=progress
    )
    return merge_weak_scaling(results)


def weak_scaling_table(points: list[WeakScalingPoint]) -> str:
    """Render the sweep as a text table."""
    lines = [
        f"{'cards':>6} {'ranks':>6} {'s/step':>8} {'MJ/card':>9} "
        f"{'total MJ':>9} {'domain %':>9}"
    ]
    for p in points:
        lines.append(
            f"{p.num_cards:>6} {p.num_ranks:>6} {p.seconds_per_step:>8.2f} "
            f"{p.joules_per_card / 1e6:>9.4f} {p.total_joules / 1e6:>9.2f} "
            f"{p.domain_sync_share:>9.1%}"
        )
    return "\n".join(lines)
