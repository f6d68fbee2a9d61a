"""The PMT base class: the common interface over all backends.

Mirrors the original toolkit's design: backends implement a single
``read_state()`` primitive; everything else (interval arithmetic,
start/stop convenience, per-counter deltas) is shared here.  The value of
this design — the reason the paper picked PMT over tool-specific
instrumentation — is that application code is written once against this
interface and the backend is chosen per platform at run time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import MeasurementError
from repro.hardware.clock import VirtualClock
from repro.pmt.state import State


class PMT(ABC):
    """Abstract power meter.

    Concrete backends provide :meth:`read_state` and a ``name``;
    :meth:`read` is the public entry point (kept separate so backends with
    internal state — RAPL unwrapping, ROCm polling integration — can hook
    it uniformly).
    """

    #: Backend name, set by subclasses (matches the factory key).
    name: str = "abstract"

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self._start_state: State | None = None
        self._end_state: State | None = None

    # -- backend primitive ----------------------------------------------------

    @abstractmethod
    def read_state(self) -> State:
        """Take one atomic measurement at the current simulated time."""

    def measurement_names(self) -> tuple[str, ...] | None:
        """The measurement names this meter's states carry, primary first.

        Backends whose state shape is fixed at construction time override
        this so wrappers (the resilient layer, composites) can synthesize
        a correctly-shaped substitute state before the first successful
        read.  ``None`` means the shape is unknown until a read succeeds.
        """
        return None

    # -- public API -------------------------------------------------------------

    def read(self) -> State:
        """Read the meter now."""
        return self.read_state()

    def start(self) -> State:
        """Begin a measured region; returns (and remembers) the start state.

        Forgets the previous region's end state, so :meth:`result` refuses
        to pair the new start with a stale end.
        """
        self._end_state = None
        self._start_state = self.read()
        return self._start_state

    def stop(self) -> State:
        """End the region begun by :meth:`start`; returns the end state."""
        if self._start_state is None:
            raise MeasurementError("stop() called without a matching start()")
        end = self.read()
        self._end_state = end
        return end

    def result(self) -> tuple[float, float, float]:
        """``(seconds, joules, watts)`` of the last start/stop region."""
        if self._start_state is None or self._end_state is None:
            raise MeasurementError("no completed start()/stop() region")
        s, e = self._start_state, self._end_state
        return self.seconds(s, e), self.joules(s, e), self.watts(s, e)

    # -- interval arithmetic (API-compatible statics) ----------------------------

    @staticmethod
    def seconds(start: State, end: State) -> float:
        """Elapsed seconds between two states."""
        dt = end.timestamp - start.timestamp
        if dt < 0:
            raise MeasurementError(
                f"end state ({end.timestamp}) precedes start ({start.timestamp})"
            )
        return dt

    @staticmethod
    def joules(start: State, end: State, name: str | None = None) -> float:
        """Energy consumed between two states (primary or named counter)."""
        if name is None:
            return end.joules - start.joules
        return end.joules_of(name) - start.joules_of(name)

    @staticmethod
    def watts(start: State, end: State, name: str | None = None) -> float:
        """Average power between two states (``deltaE / deltaT``).

        Returns 0 for zero-length intervals (matching the original
        toolkit's guard against division by zero).
        """
        dt = PMT.seconds(start, end)
        if dt == 0:
            return 0.0
        return PMT.joules(start, end, name) / dt
