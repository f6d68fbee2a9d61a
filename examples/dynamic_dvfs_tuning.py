#!/usr/bin/env python
"""Dynamic per-function DVFS: the paper's future work, end to end.

Uses the per-function measurements the PMT instrumentation gathers (the
Figure 5 data) to build a per-function clock table and runs the simulation
with the GPU clock switched at function boundaries:

1. min-EDP, unconstrained — how much EDP the measurements buy;
2. min-energy under a 3 % slowdown budget — the Pareto trade-off the
   paper's conclusion points to: compute-bound kernels stay fast while
   memory-/communication-bound phases down-clock.

Run:  python examples/dynamic_dvfs_tuning.py
"""

from repro.config import MINIHPC, SUBSONIC_TURBULENCE
from repro.tuning import tune_per_function

FREQS = (1410.0, 1230.0, 1005.0)


def describe(title: str, report) -> None:
    dilation = report.dynamic_seconds / report.baseline_seconds
    print(f"\n--- {title} ---")
    print("per-function clock table (MHz):")
    for fn, freq in sorted(report.clock_table.items()):
        print(f"  {fn:>22} -> {freq:.0f}")
    print(f"clock switches        : {report.switch_count}")
    print(f"time dilation         : {dilation:.3f}x")
    print(f"EDP vs 1410 MHz       : {report.edp_vs_baseline:.3f}")
    print(
        f"EDP vs best static    : {report.edp_vs_best_static:.3f} "
        f"(best static = {report.best_static_mhz:.0f} MHz)"
    )


def main() -> None:
    kwargs = dict(
        system=MINIHPC,
        test_case=SUBSONIC_TURBULENCE,
        num_cards=2,
        freqs_mhz=FREQS,
        num_steps=40,
        particles_per_rank=450.0**3,
    )
    print(
        "Sweeping the A100 clock on miniHPC, building per-function "
        "clock tables from the PMT measurements..."
    )
    describe("min-EDP, unconstrained", tune_per_function(**kwargs))
    describe(
        "min-energy, <=3% slowdown budget",
        tune_per_function(**kwargs, objective="energy", max_slowdown=1.03),
    )
    print(
        "\nReading: with a performance budget, per-function switching "
        "reaches operating points no whole-run frequency can (fast "
        "compute kernels, slow memory phases)."
    )


if __name__ == "__main__":
    main()
