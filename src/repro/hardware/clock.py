"""Virtual simulation clock.

All hardware, sensors, the Slurm scheduler and the MPI runtime share one
:class:`VirtualClock`.  Time only moves forward and only when the simulation
driver advances it; this makes every experiment fully deterministic and
independent of wall-clock time.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import ClockError


class VirtualClock:
    """A monotonically non-decreasing simulated clock.

    Parameters
    ----------
    start:
        Initial simulated time in seconds (default ``0.0``).
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ClockError(f"clock cannot start at negative time {start!r}")
        self._now = float(start)
        self._listeners: list[Callable[[float], None]] = []
        self._boundary_providers: list[
            Callable[[float, float], float | None]
        ] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, dt: float) -> float:
        """Advance the clock by ``dt`` seconds and return the new time.

        ``dt`` must be finite and non-negative; a zero advance is allowed
        (it is used for instantaneous events such as back-to-back sensor
        reads).

        When boundary providers are registered, a coarse advance is split
        into segments: the clock stops at every boundary inside the span,
        notifying listeners each time, so a listener taking a reading
        always observes ``now`` equal to its own sampling boundary.  Time
        still only moves forward — segmentation changes *when* listeners
        observe the clock, never the final time.
        """
        if not 0.0 <= dt < math.inf:
            if dt < 0:
                raise ClockError(f"cannot advance clock by negative dt {dt!r}")
            raise ClockError(f"cannot advance clock by non-finite dt {dt!r}")
        if dt == 0:
            return self._now
        target = self._now + dt
        while self._now < target:
            stop = target
            for provider in self._boundary_providers:
                boundary = provider(self._now, target)
                if boundary is None:
                    continue
                if boundary <= self._now or boundary > target:
                    raise ClockError(
                        f"boundary provider returned {boundary!r} outside "
                        f"({self._now!r}, {target!r}]"
                    )
                stop = min(stop, boundary)
            self._now = stop
            for listener in self._listeners:
                listener(self._now)
        return self._now

    def advance_to(self, t: float) -> float:
        """Advance the clock to absolute time ``t`` (finite, >= now)."""
        if not self._now <= t < math.inf:
            if t < self._now:
                raise ClockError(
                    f"cannot move clock backwards from {self._now!r} to {t!r}"
                )
            raise ClockError(f"cannot advance clock to non-finite time {t!r}")
        return self.advance(t - self._now)

    def on_advance(self, listener: Callable[[float], None]) -> None:
        """Register a callback invoked with the new time after each advance.

        Used by free-running samplers (e.g. the Slurm energy plugin) that
        must take periodic readings regardless of who advances time.
        """
        self._listeners.append(listener)

    def on_boundary(
        self, provider: Callable[[float, float], float | None]
    ) -> None:
        """Register a sampling-boundary provider.

        ``provider(now, target)`` must return the earliest time in
        ``(now, target]`` at which its owner needs to observe the clock,
        or ``None`` when it has no boundary in that span.  During an
        :meth:`advance`, the clock stops at each returned boundary before
        notifying listeners, so periodic samplers read their meters *at*
        the boundary instead of after the full (possibly coarse) jump —
        the difference between crediting a tick to the segment it belongs
        to and smearing it onto the advance's end time.
        """
        self._boundary_providers.append(provider)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"VirtualClock(now={self._now:.6f})"
