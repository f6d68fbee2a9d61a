"""Extension benchmark: dynamic per-function DVFS (the paper's future work).

The paper's conclusion proposes using the gathered per-function data with
"dynamic approaches ... that trade-off high performance and energy
consumption" and mentions identifying Pareto-optimal operating points.
This benchmark runs the implemented tuning loop on miniHPC (450^3
Subsonic Turbulence) in both modes:

* **min-EDP** — the policy should at least match the best static
  frequency (it may simply collapse onto it) while beating the nominal
  clock clearly;
* **energy under a 3 % slowdown budget** — the Pareto case: keep the
  compute-bound kernels at the nominal clock (performance), down-clock
  the memory-/latency-bound phases (energy), achieving savings no static
  frequency can reach inside the same budget.
"""

from conftest import write_result

from repro.config import MINIHPC, SUBSONIC_TURBULENCE
from repro.tuning import tune_per_function

FREQS = (1410.0, 1320.0, 1230.0, 1140.0, 1050.0, 1005.0)
NUM_STEPS = 100
PARTICLES = 450.0**3


def _campaigns():
    unconstrained = tune_per_function(
        MINIHPC,
        SUBSONIC_TURBULENCE,
        num_cards=2,
        freqs_mhz=FREQS,
        num_steps=NUM_STEPS,
        particles_per_rank=PARTICLES,
    )
    constrained = tune_per_function(
        MINIHPC,
        SUBSONIC_TURBULENCE,
        num_cards=2,
        freqs_mhz=FREQS,
        num_steps=NUM_STEPS,
        particles_per_rank=PARTICLES,
        objective="energy",
        max_slowdown=1.03,
    )
    return unconstrained, constrained


def bench_dynamic_dvfs(benchmark, results_dir):
    unconstrained, constrained = benchmark.pedantic(
        _campaigns, rounds=1, iterations=1
    )

    lines = ["Dynamic per-function DVFS on miniHPC (450^3, 100 steps)", ""]

    lines.append("min-EDP objective:")
    table = {k: int(v) for k, v in sorted(unconstrained.clock_table.items())}
    lines.append(f"  policy: {table}")
    lines.append(
        f"  EDP vs 1410 MHz: {unconstrained.edp_vs_baseline:.3f}   "
        f"EDP vs best static ({unconstrained.best_static_mhz:.0f} MHz): "
        f"{unconstrained.edp_vs_best_static:.3f}   "
        f"switches: {unconstrained.switch_count}"
    )
    assert unconstrained.edp_vs_baseline < 0.92
    assert unconstrained.edp_vs_best_static < 1.03

    dilation = constrained.dynamic_seconds / constrained.baseline_seconds
    lines.append("")
    lines.append("min-energy, <=3% slowdown budget (Pareto case):")
    table = {k: int(v) for k, v in sorted(constrained.clock_table.items())}
    lines.append(f"  policy: {table}")
    lines.append(
        f"  time dilation: {dilation:.3f}   EDP vs 1410 MHz: "
        f"{constrained.edp_vs_baseline:.3f}   switches: "
        f"{constrained.switch_count}"
    )
    assert dilation < 1.05
    assert constrained.edp_vs_baseline < 0.95
    # Compute-bound kernels keep the nominal clock; memory-bound drop.
    assert constrained.clock_table["MomentumEnergy"] == 1410.0
    assert constrained.clock_table["Density"] == 1005.0

    write_result(results_dir, "ext_dynamic_dvfs", "\n".join(lines))


def bench_smoke_dynamic_dvfs(results_dir):
    campaign = tune_per_function(
        MINIHPC,
        SUBSONIC_TURBULENCE,
        num_cards=2,
        freqs_mhz=(1410.0, 1230.0, 1005.0),
        num_steps=20,
        particles_per_rank=300.0**3,
        objective="energy",
        max_slowdown=1.03,
    )

    dilation = campaign.dynamic_seconds / campaign.baseline_seconds
    assert dilation < 1.05
    assert campaign.edp_vs_baseline < 1.0
    # Compute-bound kernels keep the nominal clock.
    assert campaign.clock_table["MomentumEnergy"] == 1410.0

    lines = [
        "Dynamic per-function DVFS smoke (miniHPC, 300^3, 20 steps)",
        f"policy: { {k: int(v) for k, v in sorted(campaign.clock_table.items())} }",
        f"time dilation: {dilation:.3f}   EDP vs 1410 MHz: "
        f"{campaign.edp_vs_baseline:.3f}   switches: {campaign.switch_count}",
    ]
    write_result(results_dir, "ext_dynamic_dvfs_smoke", "\n".join(lines))
