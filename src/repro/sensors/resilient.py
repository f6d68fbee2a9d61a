"""Shared vocabulary of the fault-tolerant read path.

Real telemetry fails in exactly the ways :mod:`repro.sensors.faults`
models: i2c/IPMI reads time out, BMC counters freeze, bus glitches spike
the instantaneous-power register.  The degradation ladder that absorbs
those faults (retry, interpolate, degrade, zero baseline) lives in one
place, :class:`~repro.pmt.backends.resilient.ResilientPMT`, which wraps
every meter the measurement pipeline reads.  This module holds what the
ladder shares with its consumers: the plausibility and stuck-counter
thresholds, the :class:`SensorHealth` mitigation record the
instrumentation layer threads into every run's measurement records, and
:func:`diff_counters` for per-region health deltas.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Headroom over the hardware specs' nominal peak power before an
#: instantaneous reading is treated as physically implausible.  Covers
#: boost frequencies above nominal, sensor noise and quantization — a
#: legitimate reading never reaches twice the modelled peak, while glitch
#: spikes (tens of kilowatts) always do.
GLITCH_MARGIN = 2.0

#: Default number of re-read attempts after a failed read.
DEFAULT_MAX_RETRIES = 3

#: Reads with identical accumulator values needed to declare a counter stuck.
DEFAULT_STUCK_READS = 3

#: Minimum energy (joules) the counter should have gained before a
#: zero-growth interval counts as suspicious.  Must sit comfortably above
#: the coarsest accumulator quantum (1 J on pm_counters/IPMI) so healthy
#: quantized counters at idle never trip the detector.
DEFAULT_STUCK_MIN_JOULES = 5.0

#: Minimum wall time (simulated seconds) an accumulator must show zero
#: growth before it can count as stuck.  A healthy sampled counter returns
#: identical values for reads inside one refresh period (IPMI refreshes at
#: 1 Hz), so the grace must exceed the coarsest refresh period in the
#: fleet; a genuinely frozen counter stays frozen far longer than this.
DEFAULT_STUCK_GRACE_S = 3.0


@dataclass
class SensorHealth:
    """Mitigation counters of one resilient sensor or meter.

    ``degraded`` latches once any substitution (gap interpolation, stuck
    extrapolation) has been served; glitch rejection alone does not degrade
    the sensor (the energy accumulator stays trustworthy).
    """

    reads: int = 0
    retries: int = 0
    retry_successes: int = 0
    gaps_interpolated: int = 0
    gap_seconds: float = 0.0
    glitches_rejected: int = 0
    stuck_reads: int = 0
    stuck_detections: int = 0
    degraded: bool = False

    #: Counter fields that make sense to difference/aggregate.
    COUNTER_FIELDS = (
        "reads",
        "retries",
        "retry_successes",
        "gaps_interpolated",
        "gap_seconds",
        "glitches_rejected",
        "stuck_reads",
        "stuck_detections",
    )

    @property
    def status(self) -> str:
        """``"ok"`` or ``"degraded"``."""
        return "degraded" if self.degraded else "ok"

    def counters(self) -> dict[str, float]:
        """The numeric counters as a plain dict (for records/diffs)."""
        return {name: getattr(self, name) for name in self.COUNTER_FIELDS}

    def add(self, other: "SensorHealth") -> None:
        """Accumulate another health record into this one."""
        for name in self.COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.degraded = self.degraded or other.degraded


def diff_counters(
    names: tuple[str, ...],
    after: tuple[float, ...],
    before: tuple[float, ...],
) -> dict[str, float]:
    """Per-name difference of two counter snapshots, dropping zero entries.

    The snapshots are tuples in ``names`` order; a name past their length
    is skipped.
    """
    return {
        name: delta
        for name, a, b in zip(names, after, before)
        if (delta := a - b)
    }

