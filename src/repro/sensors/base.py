"""Core sensor mechanism: a sampling energy counter over a power trace.

Real power telemetry controllers (Cray BMC, NVML, RAPL) sample device power
at a fixed cadence, quantize it, and integrate it into a monotonically
increasing energy accumulator.  :class:`SampledEnergyCounter` reproduces
that pipeline over a ground-truth :class:`~repro.hardware.trace.PowerTrace`:

* at every tick ``k * refresh_period`` the controller reads instantaneous
  power (left-rectangle sample), adds optional Gaussian sensor noise, and
  quantizes to ``watts_quantum``;
* the energy accumulator advances by ``power * refresh_period`` per tick and
  is exposed quantized to ``energy_quantum`` (optionally wrapping at
  ``wrap_joules``, like RAPL's 32-bit microjoule registers);
* a read at time ``t`` reflects the state as of the *last completed tick* —
  data between ticks is invisible, which is exactly why short instrumented
  regions see quantization error.

The per-tick quantized powers and the accumulator are cached, so reads may
arrive in any time order (two MPI ranks sharing one card sensor read it at
slightly different times).  A read past the cached ticks *catches up* the
missing ticks in one chunk.  Each chunk's accumulator values are
``prev_cum`` plus a running sum that starts from the carried increment of
the previous tick, so the chunk boundaries — which reads triggered a
catch-up, and up to which tick — are part of the bits.  A short chunk is
computed with scalar arithmetic over the trace's cursor walk; a chunk of
at least :data:`NUMPY_MIN_TICKS` ticks with NumPy, in operations that
repeat the scalar ones element by element (``np.round`` rounds half to
even like ``round``; ``np.add.accumulate`` adds in sequence), so both
give the same bits and the threshold moves no chunk boundary.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from repro.errors import SensorError

#: Catch-ups of at least this many ticks take the NumPy path.  Below it,
#: NumPy's per-call overhead costs more than the scalar loop saves.
NUMPY_MIN_TICKS = 100


@dataclass(frozen=True, slots=True)
class SensorReading:
    """One sensor read: the controller state at its last completed tick."""

    #: Time of the tick this reading reflects (seconds).
    timestamp: float
    #: Instantaneous power register (quantized; noisy if the sensor is).
    watts: float
    #: Cumulative energy accumulator (quantized; may wrap if configured).
    joules: float


class SampledEnergyCounter:
    """Sampling, quantizing, integrating power sensor (see module docstring).

    Parameters
    ----------
    trace:
        Ground-truth power source; anything with ``sampler()`` and ``sample()``
        (:class:`PowerTrace` or :class:`SummedPowerTrace`).
    refresh_period_s:
        Controller tick period in seconds.
    watts_quantum:
        Power register resolution in watts (e.g. 1.0 for pm_counters,
        1e-3 for NVML).
    energy_quantum:
        Energy accumulator resolution in joules (e.g. 1.0 for pm_counters,
        15.3e-6 for RAPL).
    noise_sigma_watts:
        Standard deviation of per-tick Gaussian sensor noise.
    wrap_joules:
        If set, the exposed accumulator wraps modulo this value.
    seed:
        Seed for the deterministic noise stream.
    initial_joules:
        Accumulator value at t = 0.  Real counters count since boot (or
        driver load), not since the job started, so consumers must always
        difference two reads; a nonzero base catches code that forgets.
    """

    def __init__(
        self,
        trace,
        refresh_period_s: float,
        watts_quantum: float = 1.0,
        energy_quantum: float = 1.0,
        noise_sigma_watts: float = 0.0,
        wrap_joules: float | None = None,
        seed: int = 0,
        initial_joules: float = 0.0,
    ) -> None:
        if refresh_period_s <= 0:
            raise SensorError("refresh period must be positive")
        if watts_quantum <= 0 or energy_quantum <= 0:
            raise SensorError("quantization steps must be positive")
        if noise_sigma_watts < 0:
            raise SensorError("noise sigma must be >= 0")
        if wrap_joules is not None and wrap_joules <= 0:
            raise SensorError("wrap_joules must be positive when set")
        if initial_joules < 0:
            raise SensorError("initial_joules must be >= 0")
        self.initial_joules = float(initial_joules)
        self._trace = trace
        self.refresh_period_s = float(refresh_period_s)
        self.watts_quantum = float(watts_quantum)
        self.energy_quantum = float(energy_quantum)
        self.noise_sigma_watts = float(noise_sigma_watts)
        self.wrap_joules = wrap_joules
        self._rng = np.random.default_rng(seed)
        self._sample = trace.sampler()
        # Quantized tick powers and their running energy integral, one
        # entry per tick so far.  Arrays of doubles extend from a list or a
        # NumPy buffer cheaply and index to plain floats.
        self._tick_watts = array("d")
        self._cum_joules = array("d")
        # The last reading served by each read path, keyed by tick index.
        self._read_memo: tuple[int, SensorReading] | None = None
        self._exact_memo: tuple[int, SensorReading] | None = None

    # -- internal ------------------------------------------------------------

    def _ensure_ticks(self, upto_tick: int) -> None:
        """Extend the cached tick buffers through tick index ``upto_tick``.

        Tick ``k`` samples ground truth at ``k * period``; the accumulator
        at tick ``k`` integrates powers of ticks ``0 .. k-1``.  The new
        ticks form one chunk: ``cum[k] = prev_cum + running``, where
        ``running`` sums the chunk's increments from its first tick on.
        Chunks of at least :data:`NUMPY_MIN_TICKS` ticks are computed with
        NumPy, shorter ones with scalar arithmetic; both give the same bits.
        """
        have = len(self._cum_joules)
        if upto_tick < have:
            return
        if have:
            prev_cum = self._cum_joules[have - 1]
            running = self._tick_watts[have - 1] * self.refresh_period_s
        else:
            prev_cum = running = 0.0
        end = upto_tick + 1
        if end - have >= NUMPY_MIN_TICKS:
            self._catch_up_numpy(have, end, prev_cum, running)
        else:
            self._catch_up_scalar(have, end, prev_cum, running)

    def _catch_up_scalar(
        self, have: int, end: int, prev_cum: float, running: float
    ) -> None:
        period = self.refresh_period_s
        quantum = self.watts_quantum
        watts = self._sample([k * period for k in range(have, end)])
        if self.noise_sigma_watts > 0:
            noise = self._rng.normal(0.0, self.noise_sigma_watts, size=len(watts))
            watts = [w + e for w, e in zip(watts, noise.tolist())]
            watts = [w if w > 0.0 else 0.0 for w in watts]
        quantized, cum = [], []
        raw = level = None
        for w in watts:
            cum.append(prev_cum + running)
            if w != raw:
                # Power holds between breakpoints: quantize once per level.
                raw, level = w, round(w / quantum) * quantum
            quantized.append(level)
            running += level * period
        self._tick_watts.extend(quantized)
        self._cum_joules.extend(cum)

    def _catch_up_numpy(
        self, have: int, end: int, prev_cum: float, running: float
    ) -> None:
        # Each step is the scalar loop's, element by element: ``np.round``
        # rounds half to even like ``round``, and ``np.add.accumulate``
        # adds in sequence like the running sum.
        period = self.refresh_period_s
        watts = self._trace.sample(np.arange(have, end) * period)
        if self.noise_sigma_watts > 0:
            watts = watts + self._rng.normal(
                0.0, self.noise_sigma_watts, size=len(watts)
            )
            watts = np.where(watts > 0.0, watts, 0.0)
        levels = np.round(watts / self.watts_quantum)
        levels *= self.watts_quantum
        steps = np.empty(end - have)
        steps[0] = running
        np.multiply(levels[:-1], period, out=steps[1:])
        np.add.accumulate(steps, out=steps)
        steps += prev_cum
        self._tick_watts.frombytes(levels.tobytes())
        self._cum_joules.frombytes(steps.tobytes())

    # -- public --------------------------------------------------------------

    def tick_index(self, t: float) -> int:
        """Index of the last completed tick at or before time ``t``."""
        if t < 0:
            raise SensorError(f"cannot read sensor at negative time {t!r}")
        # Guard against float fuzz right below a tick boundary.
        return int(math.floor(t / self.refresh_period_s + 1e-9))

    def read(self, t: float) -> SensorReading:
        """Read the sensor at simulated time ``t``."""
        k = self.tick_index(t)
        memo = self._read_memo
        if memo is not None and memo[0] == k:
            return memo[1]
        self._ensure_ticks(k)
        joules = self.initial_joules + self._cum_joules[k]
        joules = math.floor(joules / self.energy_quantum) * self.energy_quantum
        if self.wrap_joules is not None:
            joules = joules % self.wrap_joules
        reading = SensorReading(
            timestamp=k * self.refresh_period_s,
            watts=self._tick_watts[k],
            joules=float(joules),
        )
        self._read_memo = (k, reading)
        return reading

    def read_exact(self, t: float) -> SensorReading:
        """Read the sensor at ``t`` with the accumulator at full precision.

        Integer-register front-ends (NVML's millijoule counter) must
        quantize *once*, directly from the exact accumulator, so the
        sub-quantum residual stays in the accumulator and carries into the
        next read.  Quantizing an already-quantized float a second time
        (floor to ``energy_quantum``, then round to integer millijoules)
        re-rounds the representation error of the first step and can shift
        single units per read — summed deltas then drift below the
        integrated power curve on long runs.  The exposed wrap still
        applies; only the ``energy_quantum`` floor is skipped.
        """
        k = self.tick_index(t)
        memo = self._exact_memo
        if memo is not None and memo[0] == k:
            return memo[1]
        self._ensure_ticks(k)
        joules = self.initial_joules + self._cum_joules[k]
        if self.wrap_joules is not None:
            joules = joules % self.wrap_joules
        reading = SensorReading(
            timestamp=k * self.refresh_period_s,
            watts=self._tick_watts[k],
            joules=float(joules),
        )
        self._exact_memo = (k, reading)
        return reading

    def true_energy(self, t: float) -> float:
        """Ground-truth energy on ``[0, t]`` (for validation tests)."""
        return self._trace.energy_until(t)
