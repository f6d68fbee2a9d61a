"""Energy-accounting audit layer.

Three cooperating pieces keep the energy books honest:

* :mod:`repro.audit.invariants` — pure checkers for the accounting
  identities (function/device partitions, PMT-vs-Slurm, store
  conservation);
* :mod:`repro.audit.hooks` — the opt-in runtime
  :class:`~repro.audit.hooks.EnergyAuditor` that watches profilers and
  samplers live and reconciles at end of run;
* :mod:`repro.audit.lint` — the AST lint that keeps the bug classes the
  auditor exists to catch out of the source tree.
"""

from repro.audit.findings import (
    INVARIANTS,
    SEVERITIES,
    AuditFinding,
    AuditReport,
)
from repro.audit.hooks import (
    AUDIT_ENV,
    AuditSettings,
    EnergyAuditor,
    audit_campaign_result,
)
from repro.audit.invariants import (
    check_device_partition,
    check_function_partition,
    check_pmt_vs_slurm,
    check_store_conservation,
)
from repro.audit.lint import LintFinding, lint_paths, lint_source
from repro.audit.tolerances import (
    PER_SYSTEM,
    AuditTolerances,
    tolerances_for,
)

__all__ = [
    "AUDIT_ENV",
    "INVARIANTS",
    "PER_SYSTEM",
    "SEVERITIES",
    "AuditFinding",
    "AuditReport",
    "AuditSettings",
    "AuditTolerances",
    "EnergyAuditor",
    "LintFinding",
    "audit_campaign_result",
    "check_device_partition",
    "check_function_partition",
    "check_pmt_vs_slurm",
    "check_store_conservation",
    "lint_paths",
    "lint_source",
    "tolerances_for",
]
