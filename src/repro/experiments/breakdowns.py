"""Figures 2 and 3: device and per-function energy breakdowns.

The paper's breakdown runs are the largest Figure 1 configurations: 48
cards per system (96 GCD ranks on LUMI-G, 48 ranks on CSCS-A100), 100
steps, Subsonic Turbulence at 150 M and Evrard Collapse at 80 M particles
per rank.  The four cells are one campaign, run on the shared engine
like every other figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.breakdown import (
    DeviceBreakdown,
    FunctionRow,
    device_breakdown,
    function_breakdown,
)
from repro.campaign.executor import execute
from repro.campaign.keys import resolve_test_case
from repro.campaign.spec import CampaignSpec, expand
from repro.campaign.store import ResultStore
from repro.config import (
    CSCS_A100,
    EVRARD_COLLAPSE,
    LUMI_G,
    SUBSONIC_TURBULENCE,
    SystemConfig,
    TestCaseConfig,
    get_system,
)

#: Figure 2/3 runs use the largest Figure 1 scale.
FIGURE2_CARDS = 48


@dataclass(frozen=True)
class BreakdownCell:
    """One (system, test case) breakdown result."""

    system: SystemConfig
    test_case: TestCaseConfig
    num_cards: int
    devices: DeviceBreakdown
    gpu_functions: list[FunctionRow]
    cpu_functions: list[FunctionRow]

    @property
    def label(self) -> str:
        """Short cell label, e.g. ``LUMI-Turb``."""
        case = "Turb" if self.test_case is SUBSONIC_TURBULENCE else "Evr"
        system = "LUMI" if self.system is LUMI_G else "CSCS-A100"
        return f"{system}-{case}"


def figure2_spec(
    num_cards: int = FIGURE2_CARDS,
    num_steps: int | None = None,
    seed: int = 0,
) -> CampaignSpec:
    """The four Figure 2/3 cells: {LUMI-G, CSCS-A100} x {Turbulence, Evrard}."""
    return CampaignSpec(
        name="fig2",
        systems=(LUMI_G.name, CSCS_A100.name),
        test_cases=(SUBSONIC_TURBULENCE.name, EVRARD_COLLAPSE.name),
        card_counts=(num_cards,),
        num_steps=num_steps,
        seeds=(seed,),
    )


def figure2_breakdowns(
    num_cards: int = FIGURE2_CARDS,
    num_steps: int | None = None,
    seed: int = 0,
    store: ResultStore | None = None,
) -> list[BreakdownCell]:
    """All four Figure 2 cells; Figure 3 reads the same cells."""
    keys = expand(figure2_spec(num_cards, num_steps, seed))
    results, _ = execute(keys, store=store)
    cells = []
    for key in keys:
        run = results[key].run
        cells.append(
            BreakdownCell(
                system=get_system(key.system),
                test_case=resolve_test_case(key.test_case),
                num_cards=num_cards,
                devices=device_breakdown(run),
                gpu_functions=function_breakdown(run, "gpu"),
                cpu_functions=function_breakdown(run, "cpu"),
            )
        )
    return cells
