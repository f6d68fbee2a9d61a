"""PMT measurement state.

A :class:`State` is one atomic ``read()`` of a PMT backend: a timestamp and
one or more named ``(joules, watts)`` measurements.  The first measurement
is the backend's *primary* (aggregate) counter — the one the convenience
arithmetic in :class:`repro.pmt.base.PMT` operates on; additional entries
carry per-device detail (the Cray backend reports node, cpu, memory and
per-card accelerator counters in a single state).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MeasurementError


#: Data-quality grades a measurement can carry (see ``Measurement.quality``).
#:
#: * ``ok``           — read straight off the sensor;
#: * ``rejected``     — the power register failed plausibility bounds and
#:   was substituted (energy untouched);
#: * ``extrapolated`` — a stuck accumulator was detected; energy is
#:   extrapolated from the freeze point at the last good power;
#: * ``interpolated`` — the read failed entirely; the whole measurement is
#:   a hold-last-good estimate across the gap;
#: * ``degraded``     — a composite child failed; values are its last known
#:   state and are excluded from the composite's primary sum;
#: * ``suspect``      — the value may silently undercount (e.g. a RAPL
#:   interval long enough to span more than one counter wraparound).
MEASUREMENT_QUALITIES = (
    "ok",
    "rejected",
    "extrapolated",
    "interpolated",
    "degraded",
    "suspect",
)


@dataclass(frozen=True, slots=True)
class Measurement:
    """One named counter sample within a state."""

    name: str
    joules: float
    watts: float
    #: Data-quality grade (one of :data:`MEASUREMENT_QUALITIES`).
    quality: str = "ok"


@dataclass(frozen=True, slots=True)
class State:
    """One atomic PMT read."""

    timestamp: float
    measurements: tuple[Measurement, ...]

    def __post_init__(self) -> None:
        if len(self.measurements) == 1:
            return
        if not self.measurements:
            raise MeasurementError("a PMT state needs at least one measurement")
        names = [m.name for m in self.measurements]
        if len(set(names)) != len(names):
            raise MeasurementError(f"duplicate measurement names in state: {names}")

    @property
    def primary(self) -> Measurement:
        """The backend's aggregate measurement."""
        return self.measurements[0]

    @property
    def joules(self) -> float:
        """Aggregate cumulative energy at this state."""
        return self.primary.joules

    @property
    def watts(self) -> float:
        """Aggregate instantaneous power at this state."""
        return self.primary.watts

    def names(self) -> tuple[str, ...]:
        """All measurement names, primary first."""
        return tuple(m.name for m in self.measurements)

    def measurement(self, name: str) -> Measurement:
        """Look a measurement up by name."""
        for m in self.measurements:
            if m.name == name:
                return m
        raise MeasurementError(
            f"no measurement named {name!r}; available: {self.names()}"
        )

    def joules_of(self, name: str) -> float:
        """Cumulative energy of the named counter."""
        return self.measurement(name).joules

    def watts_of(self, name: str) -> float:
        """Instantaneous power of the named counter."""
        return self.measurement(name).watts
