"""Experiment runners reproducing every table and figure of the paper."""

from repro.experiments.breakdowns import figure2_breakdowns, figure2_spec
from repro.experiments.frequency import (
    figure4_series,
    figure4_spec,
    figure5_series,
    figure5_spec,
)
from repro.experiments.runner import ExperimentResult, run_scaled_experiment
from repro.experiments.scaling import (
    weak_scaling_series,
    weak_scaling_spec,
    weak_scaling_table,
)
from repro.experiments.tables import table1_text
from repro.experiments.validation import figure1_series, figure1_spec

__all__ = [
    "ExperimentResult",
    "run_scaled_experiment",
    "figure1_series",
    "figure1_spec",
    "figure2_breakdowns",
    "figure2_spec",
    "figure4_series",
    "figure4_spec",
    "figure5_series",
    "figure5_spec",
    "table1_text",
    "weak_scaling_series",
    "weak_scaling_spec",
    "weak_scaling_table",
]
