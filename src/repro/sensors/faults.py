"""Sensor fault injection.

Real telemetry fails in characteristic ways — counters freeze (BMC hangs),
readings drop out (i2c timeouts), values spike (bus glitches).  These
wrappers inject such faults deterministically around any sensor-shaped
object (anything with ``read(t) -> SensorReading``), so the measurement
pipeline's robustness can be tested and the ablation benchmarks can
quantify how each failure mode corrupts per-function attribution.

All wrappers preserve the counter contract *shape* (monotone joules for
the freeze case; the glitch case intentionally violates instantaneous
power plausibility, which :class:`~repro.pmt.backends.resilient.ResilientPMT`
flags; detection and mitigation live there, not here).
"""

from __future__ import annotations

from repro.errors import SensorError
from repro.sensors.base import SensorReading


class FrozenCounterFault:
    """After ``freeze_at`` the sensor returns its last-known state forever.

    Models a hung telemetry controller: the energy accumulator stops, so
    any region measured across the freeze reads as (near) zero energy.
    """

    def __init__(self, inner, freeze_at: float) -> None:
        if freeze_at < 0:
            raise SensorError("freeze time must be >= 0")
        self._inner = inner
        self.freeze_at = float(freeze_at)

    def read(self, t: float) -> SensorReading:
        return self._inner.read(min(t, self.freeze_at))

    def read_exact(self, t: float) -> SensorReading:
        """The exact-accumulator read path freezes identically."""
        return self._inner.read_exact(min(t, self.freeze_at))


class DropoutFault:
    """Reads fail entirely inside the outage window (raising SensorError).

    Models i2c/IPMI timeouts; consumers must either retry, interpolate, or
    surface the gap.
    """

    def __init__(self, inner, outage_start: float, outage_end: float) -> None:
        if outage_end <= outage_start:
            raise SensorError("outage window must have positive length")
        self._inner = inner
        self.outage_start = float(outage_start)
        self.outage_end = float(outage_end)

    def read(self, t: float) -> SensorReading:
        if self.outage_start <= t < self.outage_end:
            raise SensorError(
                f"sensor read timed out at t={t:.3f} "
                f"(outage [{self.outage_start}, {self.outage_end}))"
            )
        return self._inner.read(t)

    def read_exact(self, t: float) -> SensorReading:
        """The exact-accumulator read path times out identically."""
        if self.outage_start <= t < self.outage_end:
            raise SensorError(
                f"sensor read timed out at t={t:.3f} "
                f"(outage [{self.outage_start}, {self.outage_end}))"
            )
        return self._inner.read_exact(t)


class GlitchFault:
    """Occasional wild power readings (bus glitches), deterministic.

    The energy accumulator is untouched (glitches are in the instantaneous
    register only), matching how real glitches usually manifest.
    """

    def __init__(
        self,
        inner,
        probability: float = 0.01,
        magnitude_watts: float = 10_000.0,
        seed: int = 0,
    ) -> None:
        if not 0 <= probability <= 1:
            raise SensorError("glitch probability must be in [0, 1]")
        self._inner = inner
        self.probability = probability
        self.magnitude_watts = magnitude_watts
        self._seed = seed

    def read(self, t: float) -> SensorReading:
        return self._glitched(self._inner.read(t), t)

    def read_exact(self, t: float) -> SensorReading:
        """Exact-accumulator reads see the same glitched power register."""
        return self._glitched(self._inner.read_exact(t), t)

    def _glitched(self, reading: SensorReading, t: float) -> SensorReading:
        # Deterministic per-timestamp decision (stable across replays).
        unit = (hash((self._seed, round(t * 1e6))) % 10_000) / 10_000.0
        if unit < self.probability:
            return SensorReading(
                timestamp=reading.timestamp,
                watts=self.magnitude_watts,
                joules=reading.joules,
            )
        return reading

