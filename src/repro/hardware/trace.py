"""Piecewise-constant power traces with exact energy integration.

A :class:`PowerTrace` is the ground-truth power timeline of one device: a
sequence of ``(time, watts)`` breakpoints where the power holds the given
value from each breakpoint until the next.  Energy between two times is the
exact integral of this step function — sensors later *approximate* this
integral with their own cadence and quantization.

Traces are append-only (time moves forward) and integration is vectorized:
breakpoints are kept in growable NumPy buffers and a cumulative-energy
prefix array is cached and invalidated on append, so repeated queries over
long runs stay O(log n).  Sensors, which sample a trace tick by tick as
time moves forward, catch up a few ticks with :meth:`PowerTrace.sampler`
instead: a scalar cursor walk that returns the same values as
:meth:`PowerTrace.sample`, which they keep for long catch-ups.
"""

from __future__ import annotations

import math
from operator import add
from typing import Callable

import numpy as np

from repro.errors import ClockError


class PowerTrace:
    """Append-only piecewise-constant power timeline.

    Parameters
    ----------
    initial_watts:
        Power level from time 0 until the first explicit breakpoint.
    """

    _INITIAL_CAPACITY = 256

    def __init__(self, initial_watts: float = 0.0) -> None:
        self._times = np.zeros(self._INITIAL_CAPACITY, dtype=np.float64)
        self._watts = np.zeros(self._INITIAL_CAPACITY, dtype=np.float64)
        self._watts[0] = float(initial_watts)
        self._n = 1
        self._views()
        # The last breakpoint as plain floats: NumPy scalars cost more to
        # read and compare on every set_power.
        self._last_t = 0.0
        self._last_w = float(initial_watts)
        self._cum_energy: np.ndarray | None = None

    # -- recording ----------------------------------------------------------

    def set_power(self, t: float, watts: float) -> None:
        """Record that power becomes ``watts`` at time ``t``.

        ``t`` must be >= the last breakpoint time.  Setting the same power
        again is a no-op; setting a different power at exactly the last
        breakpoint time overwrites it (zero-length segments are elided).
        """
        if not 0.0 <= watts < math.inf:
            raise ValueError(f"power {watts!r} W is not finite and non-negative")
        last_t = self._last_t
        if not last_t <= t < math.inf:
            if t < last_t:
                raise ClockError(
                    f"trace breakpoint at t={t!r} precedes last breakpoint "
                    f"{last_t!r}"
                )
            raise ClockError(f"trace breakpoint at non-finite time {t!r}")
        watts = float(watts)
        if watts == self._last_w:
            return
        self._cum_energy = None
        n = self._n
        if t == last_t:
            # Overwrite the zero-length segment in place.
            self._watts_mv[n - 1] = self._last_w = watts
            # If the overwrite makes it equal to the previous segment, merge.
            if n >= 2 and self._watts_mv[n - 2] == watts:
                self._n = n - 1
                self._last_t = self._times_mv[n - 2]
            return
        if n == len(self._times):
            self._grow()
        self._times_mv[n] = self._last_t = float(t)
        self._watts_mv[n] = self._last_w = watts
        self._n = n + 1

    def _grow(self) -> None:
        new_cap = len(self._times) * 2
        times = np.zeros(new_cap, dtype=np.float64)
        watts = np.zeros(new_cap, dtype=np.float64)
        times[: self._n] = self._times[: self._n]
        watts[: self._n] = self._watts[: self._n]
        self._times = times
        self._watts = watts
        self._views()

    def _views(self) -> None:
        # Memoryviews index to plain floats, far cheaper than NumPy
        # scalars; they are remade whenever the buffers are.
        self._times_mv = memoryview(self._times)
        self._watts_mv = memoryview(self._watts)

    # -- queries ------------------------------------------------------------

    @property
    def num_breakpoints(self) -> int:
        """Number of stored breakpoints (>= 1)."""
        return self._n

    def power_at(self, t: float) -> float:
        """Instantaneous power in watts at time ``t``.

        Times before 0 use the initial level; times after the last
        breakpoint hold the last level (the device keeps drawing it).
        """
        idx = int(np.searchsorted(self._times[: self._n], t, side="right")) - 1
        idx = max(idx, 0)
        return float(self._watts[idx])

    def _cumulative(self) -> np.ndarray:
        """Cumulative energy (J) consumed up to each breakpoint time."""
        if self._cum_energy is None or len(self._cum_energy) != self._n:
            t = self._times[: self._n]
            w = self._watts[: self._n]
            cum = np.zeros(self._n, dtype=np.float64)
            if self._n > 1:
                np.cumsum(w[:-1] * np.diff(t), out=cum[1:])
            self._cum_energy = cum
        return self._cum_energy

    def energy_until(self, t: float) -> float:
        """Exact energy in joules consumed on ``[0, t]``."""
        if t <= 0:
            return 0.0
        times = self._times[: self._n]
        cum = self._cumulative()
        idx = int(np.searchsorted(times, t, side="right")) - 1
        idx = max(idx, 0)
        return float(cum[idx] + self._watts[idx] * (t - times[idx]))

    def energy_between(self, t0: float, t1: float) -> float:
        """Exact energy in joules consumed on ``[t0, t1]``."""
        if t1 < t0:
            raise ValueError(f"energy_between interval reversed: [{t0}, {t1}]")
        return self.energy_until(t1) - self.energy_until(t0)

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`power_at` over an array of times."""
        times = np.asarray(times, dtype=np.float64)
        idx = np.searchsorted(self._times[: self._n], times, side="right") - 1
        np.clip(idx, 0, None, out=idx)
        return self._watts[: self._n][idx]

    def sampler(self) -> Callable[[list[float]], list[float]]:
        """A scalar :meth:`sample` for one reader whose times move forward.

        The returned ``sample(times)`` takes a non-decreasing list of times
        and returns the powers :meth:`sample` would return for them on the
        trace as it stands at the call.  It keeps a cursor on the
        breakpoint the reader last hit, so a catch-up of a few ticks costs
        a few float comparisons instead of a vectorized binary search; a
        list starting before the cursor restarts the walk from the first
        breakpoint.  When the whole list lies on one level (a device
        between two load changes), the result is that level repeated,
        with no per-time comparison.
        """
        cursor = 0

        def sample(times: list[float]) -> list[float]:
            nonlocal cursor
            n = self._n
            bp_times = self._times_mv
            bp_watts = self._watts_mv
            # A merge in set_power can drop the breakpoint the cursor held.
            i = min(cursor, n - 1)
            if times and times[0] < bp_times[i]:
                i = 0
            watts = bp_watts[i]
            next_t = bp_times[i + 1] if i + 1 < n else math.inf
            if not times or times[-1] < next_t:
                cursor = i
                return [watts] * len(times)
            out = []
            for t in times:
                while t >= next_t:
                    i += 1
                    watts = bp_watts[i]
                    next_t = bp_times[i + 1] if i + 1 < n else math.inf
                out.append(watts)
            cursor = i
            return out

        return sample

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only zero-copy views of the ``(times, watts)`` breakpoints.

        The public accessor for exporters and analysis code — nothing
        outside this class should reach into the private growable buffers
        (whose length exceeds the logical size, and whose cached
        cumulative-energy prefix is invalidated on append).  The views are
        snapshots: a later append may reallocate the backing buffers, so
        hold the views only for the duration of one export, and copy
        (:meth:`breakpoints`) to keep them.
        """
        times = self._times[: self._n].view()
        watts = self._watts[: self._n].view()
        times.flags.writeable = False
        watts.flags.writeable = False
        return times, watts

    def breakpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the ``(times, watts)`` breakpoint arrays."""
        times, watts = self.as_arrays()
        return times.copy(), watts.copy()


class SummedPowerTrace:
    """Read-only view that sums several traces (e.g. node = sum of devices).

    An optional constant offset models always-on draw that belongs to no
    individual device (fans, voltage regulators, board logic).
    """

    def __init__(self, traces: list[PowerTrace], constant_watts: float = 0.0) -> None:
        if constant_watts < 0:
            raise ValueError(f"negative constant power {constant_watts!r} W")
        self._traces = list(traces)
        self._constant = float(constant_watts)

    @property
    def constant_watts(self) -> float:
        """The constant always-on component in watts."""
        return self._constant

    def power_at(self, t: float) -> float:
        """Instantaneous summed power at time ``t``."""
        return self._constant + sum(tr.power_at(t) for tr in self._traces)

    def energy_until(self, t: float) -> float:
        """Summed energy on ``[0, t]`` including the constant component."""
        if t <= 0:
            return 0.0
        return self._constant * t + sum(tr.energy_until(t) for tr in self._traces)

    def energy_between(self, t0: float, t1: float) -> float:
        """Summed energy on ``[t0, t1]``."""
        if t1 < t0:
            raise ValueError(f"energy_between interval reversed: [{t0}, {t1}]")
        return self.energy_until(t1) - self.energy_until(t0)

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`power_at`."""
        times = np.asarray(times, dtype=np.float64)
        total = np.full(times.shape, self._constant, dtype=np.float64)
        for tr in self._traces:
            total += tr.sample(times)
        return total

    def sampler(self) -> Callable[[list[float]], list[float]]:
        """Scalar :meth:`sample` for one forward-moving reader.

        Sums the member samplers in the same order as :meth:`sample`
        (constant first, then each trace), so the values are bit-identical.
        """
        samplers = [tr.sampler() for tr in self._traces]
        constant = self._constant

        def sample(times: list[float]) -> list[float]:
            total = [constant] * len(times)
            for member in samplers:
                total = list(map(add, total, member(times)))
            return total

        return sample
