"""Post-hoc analysis of gathered measurements.

The paper's analysis scripts "take the system's hardware configuration and
MPI rank-to-GPU assignment into consideration" (Section 2): per-card GPU
counters shared by two GCD ranks on MI250X, one CPU counter shared by all
node-local ranks, a memory counter that exists only on LUMI-G.  This
package implements that correction layer plus the derived quantities of
the evaluation: device breakdowns (Figure 2), per-function breakdowns
(Figure 3), energy-delay products (Figures 4/5) and the PMT-vs-Slurm
validation (Figure 1).
"""

from repro.analysis.aggregate import (
    function_totals,
    sensor_sharing_factor,
)
from repro.analysis.breakdown import (
    DeviceBreakdown,
    FunctionRow,
    device_breakdown,
    function_breakdown,
)
from repro.analysis.edp import edp, function_edp, normalized_edp_series, run_edp
from repro.analysis.validation import ValidationPoint, validate_pmt_against_slurm

__all__ = [
    "function_totals",
    "sensor_sharing_factor",
    "DeviceBreakdown",
    "FunctionRow",
    "device_breakdown",
    "function_breakdown",
    "edp",
    "run_edp",
    "function_edp",
    "normalized_edp_series",
    "ValidationPoint",
    "validate_pmt_against_slurm",
]
