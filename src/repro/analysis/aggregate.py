"""Hardware-configuration-aware measurement attribution.

Raw per-rank counter deltas over-count shared sensors:

* the GPU (``accel``) counter covers a whole *card* — two ranks on an
  MI250X card each measure both GCDs;
* the CPU / memory / node counters cover the whole node — every
  node-local rank measures the same socket.

The correction divides each raw delta by the number of ranks sharing the
sensor, so that summing the attributed values over all ranks reproduces
the true total once.  This is exact when the sharing ranks execute the
same function simultaneously (the SPMD common case) and approximate under
load imbalance — the residual error is quantified by the GCD-attribution
ablation benchmark.
"""

from __future__ import annotations

from repro.errors import AnalysisError
from repro.instrumentation.records import (
    COUNTERS,
    FunctionEnergyRecord,
    RunMeasurements,
)


def sensor_sharing_factor(run: RunMeasurements, counter: str) -> int:
    """How many ranks share the sensor behind ``counter``."""
    if counter == "gpu":
        return run.gcds_per_card
    if counter in ("cpu", "memory", "node"):
        return run.ranks_per_node
    raise AnalysisError(
        f"unknown counter {counter!r}; expected one of {COUNTERS}"
    )


def _missing_counter(record: FunctionEnergyRecord, counter: str) -> AnalysisError:
    return AnalysisError(
        f"record rank={record.rank} function={record.function!r} has no "
        f"{counter!r} counter"
    )


def function_totals(run: RunMeasurements, counter: str) -> dict[str, float]:
    """Total attributed energy per function across all ranks.

    Adds each record's raw delta divided by its counter's sharing factor,
    in record order.
    """
    share = sensor_sharing_factor(run, counter)
    totals: dict[str, float] = {}
    for record in run.records:
        raw = record.joules.get(counter)
        if raw is None:
            if counter == "memory":
                continue  # platform without a memory sensor
            raise _missing_counter(record, counter)
        totals[record.function] = totals.get(record.function, 0.0) + raw / share
    return totals


def function_seconds(run: RunMeasurements) -> dict[str, float]:
    """Mean (over ranks) accumulated wall time per function."""
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for record in run.records:
        sums[record.function] = sums.get(record.function, 0.0) + record.seconds
        counts[record.function] = counts.get(record.function, 0) + 1
    return {name: sums[name] / counts[name] for name in sums}
