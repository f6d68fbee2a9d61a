"""Energy-aware dynamic frequency tuning (the paper's future work).

The conclusion of the paper: *"Future work includes the utilization of the
gathered data per-function and employing a variety of dynamic approaches
from the literature that trade-off high performance and energy
consumption."*  This package implements that step on top of the
measurement infrastructure:

* :mod:`repro.tuning.dynamic` — an instrumented application that switches
  the GPU clock at function boundaries (with a switching-latency cost) to
  whatever a ``clock_for(function)`` callable names;
* :mod:`repro.tuning.optimizer` — the *offline* oracle: sweep, build a
  per-function clock table (a plain ``dict[str, float]``), run it, and
  report savings against the static baseline;
* :mod:`repro.tuning.governor` — the *online* closed loop: a governor
  that learns per-function clocks from streaming telemetry during a
  single run (min-energy, min-EDP, or power-cap compliance).

Both re-clock through one path:
:func:`~repro.experiments.runner.run_scaled_experiment` takes either the
governor or the clock table as its ``governor`` argument, so a tuned run
is measured inside the same Slurm job context as its static baselines.
"""

from repro.tuning.dynamic import (
    DVFS_SWITCH_LATENCY_S,
    SWITCH_FUNCTION,
    DynamicDvfsApplication,
)
from repro.tuning.governor import (
    GOVERNOR_POLICIES,
    EnergyAwareGovernor,
    GovernorConfig,
    GovernorReport,
)
from repro.tuning.optimizer import (
    FunctionSweepPoint,
    TuningReport,
    build_oracle_policy,
    sweep_points,
    tune_per_function,
)

__all__ = [
    "FunctionSweepPoint",
    "build_oracle_policy",
    "DynamicDvfsApplication",
    "DVFS_SWITCH_LATENCY_S",
    "SWITCH_FUNCTION",
    "EnergyAwareGovernor",
    "GovernorConfig",
    "GovernorReport",
    "GOVERNOR_POLICIES",
    "TuningReport",
    "sweep_points",
    "tune_per_function",
]
