"""Audit tolerances: how tightly each invariant is allowed to close.

The invariants are not all exact.  Quantized counters floor energy per
read, regions tile the app window only up to per-rank straggler gaps,
and the PMT-vs-Slurm comparison has an *expected* structural gap (the
launch/init/teardown energy Slurm accounts but the instrumented window
does not see).  The tolerances below encode exactly how much slack each
identity legitimately has — anything beyond is an accounting bug, not
noise.  Per-system PMT/Slurm ratio bounds were calibrated empirically on
the Figure 1 validation path of the three paper systems (see DESIGN.md,
"Audited invariants").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AuditTolerances:
    """All slack the auditor grants, in one place."""

    #: Absolute slack (joules) for any single counter delta: quantized
    #: accumulators may floor up to one quantum per boundary read.
    counter_slack_joules: float = 1.0

    #: Per-function attributed sums may fall short of the whole-window
    #: total by at most this fraction: regions tile the app window except
    #: the per-rank straggler gaps between a rank's own region end and
    #: the phase barrier (load-imbalance time no region measures).
    function_partition_max_deficit: float = 0.08

    #: ... and may *exceed* the window total only by quantization fuzz —
    #: a rank's region energies telescope inside the window, so any real
    #: excess means double counting.
    function_partition_max_excess: float = 1e-3

    #: Per-device energies (CPU + GPU + memory) may exceed the node
    #: sensor total by at most this fraction; the node counter includes
    #: everything the device counters see, so "Other" must stay >= 0 up
    #: to independent sensor noise and quantization.
    device_partition_max_excess: float = 0.02

    #: Tiered-store energy queries vs the raw tick stream: the store's
    #: cumulative-joule knots make full-range queries exact; relative
    #: slack covers float summation order only.
    timeseries_conservation_rel: float = 1e-6

    #: PMT total may exceed Slurm's ConsumedEnergy only by float fuzz
    #: (the instrumented window is a sub-interval of what Slurm
    #: integrates).
    pmt_slurm_ratio_max: float = 1.0 + 1e-9

    #: Lower bound on PMT/Slurm, applied only when the instrumented
    #: window covers at least ``pmt_slurm_min_window_fraction`` of the
    #: accounted wall time — short smoke runs are legitimately dominated
    #: by launch/teardown energy and carry no paper-scale floor.
    pmt_slurm_ratio_min: float = 0.5
    pmt_slurm_min_window_fraction: float = 0.5


#: Paper-system overrides (Figure 1): the PMT/Slurm gap is the
#: out-of-window energy, larger on systems with slower setup and higher
#: idle draw (LUMI-G), small on the NVML systems.  Floors hold for runs
#: whose instrumented window dominates the job (the fig1 configurations);
#: they sit deliberately a few percent below the ratios measured on the
#: fig1 path at paper step counts: LUMI-G 0.84, CSCS-A100 0.91,
#: miniHPC 0.90 (stable across card counts to within 0.003).
PER_SYSTEM: dict[str, AuditTolerances] = {
    "LUMI-G": AuditTolerances(pmt_slurm_ratio_min=0.80),
    "CSCS-A100": AuditTolerances(pmt_slurm_ratio_min=0.85),
    "miniHPC": AuditTolerances(pmt_slurm_ratio_min=0.85),
}


def tolerances_for(system_name: str | None) -> AuditTolerances:
    """The tolerance set of one system (defaults for unknown systems)."""
    if system_name is None:
        return AuditTolerances()
    return PER_SYSTEM.get(system_name, AuditTolerances())

