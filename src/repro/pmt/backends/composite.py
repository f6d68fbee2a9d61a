"""Composite PMT backend: several meters behind one interface.

The original toolkit lets an application hold one meter per device; in
practice instrumentation wants *one* ``read()`` per region covering all of
them (GPU + CPU on an NVML/RAPL platform, say).  The composite wraps any
set of PMT instances: its state's primary measurement is the sum of the
children's primaries, and every child measurement is re-exported with a
prefixed name for per-device analysis.

**Child ordering** is snapshotted at construction time from the insertion
order of the ``meters`` dict and never changes afterwards (``children``
exposes the snapshot).  Reads therefore hit the children in a fixed,
documented order — important because child reads are stateful (RAPL
unwrapping, ROCm polling integration) and a different order would produce
different power estimates.

**Failure isolation**: one failing child degrades only *its own*
measurements.  A child whose ``read()`` raises is re-exported at its last
known values flagged ``degraded`` and excluded from the primary sum, so
the composite keeps serving the healthy children instead of aborting the
whole read.  Only when every child fails (or a child fails before its
first successful read) does the composite raise.  Wrap the children in
:class:`~repro.pmt.backends.resilient.ResilientPMT`, the pipeline's one
degradation ladder (retry, interpolation, stuck detection, zero baseline)
— the composite's isolation is the backstop for children that fail hard.
"""

from __future__ import annotations

from repro.errors import BackendError, SensorError
from repro.pmt.base import PMT
from repro.pmt.registry import register_backend
from repro.pmt.state import Measurement, State


@register_backend("composite")
class CompositePMT(PMT):
    """A meter aggregating several child meters.

    Parameters
    ----------
    meters:
        Named child meters, e.g. ``{"gpu0": nvml_meter, "cpu": rapl_meter}``.
        All children must share one clock (one node / one simulation).
        Child names must be non-empty and must not contain ``"."`` — the
        dot is the re-export separator, and a dotted child name could
        collide with another child's prefixed measurements (``"a"`` +
        ``"b.c"`` and ``"a.b"`` + ``"c"`` would both export ``"a.b.c"``).
    """

    def __init__(self, meters: dict[str, PMT]) -> None:
        if not meters:
            raise BackendError("composite meter needs at least one child")
        for name in meters:
            if not name:
                raise BackendError("composite child names must be non-empty")
            if "." in name:
                raise BackendError(
                    f"composite child name {name!r} contains '.', which "
                    "would make its prefixed measurement names ambiguous"
                )
            if name == "total":
                raise BackendError(
                    "composite child name 'total' collides with the "
                    "composite's primary measurement"
                )
        clocks = {id(m.clock) for m in meters.values()}
        if len(clocks) != 1:
            raise BackendError("composite children must share one clock")
        super().__init__(next(iter(meters.values())).clock)
        self._meters = dict(meters)
        # Iteration-order snapshot: reads always visit children in the
        # insertion order of the constructor dict.
        self._order: tuple[str, ...] = tuple(meters)
        self._last_child_state: dict[str, State] = {}
        #: Cumulative failed reads per child (fault observability).
        self.child_failures: dict[str, int] = {name: 0 for name in self._order}
        #: Children served from held values on the most recent read.
        self.degraded_children: tuple[str, ...] = ()

    @property
    def children(self) -> tuple[str, ...]:
        """Names of the child meters, in the snapshotted read order."""
        return self._order

    def measurement_names(self) -> tuple[str, ...] | None:
        names: list[str] = ["total"]
        for name in self._order:
            child_names = self._meters[name].measurement_names()
            if child_names is None:
                return None
            names.extend(f"{name}.{m}" for m in child_names)
        return tuple(names)

    def read_state(self) -> State:
        measurements: list[Measurement] = []
        total_joules = 0.0
        total_watts = 0.0
        degraded: list[str] = []
        for name in self._order:
            meter = self._meters[name]
            try:
                state = meter.read()
            except SensorError:
                self.child_failures[name] += 1
                held = self._last_child_state.get(name)
                if held is None:
                    raise
                degraded.append(name)
                # Flagged, not summed: the child's last known values stay
                # visible for analysis but cannot pollute the primary.
                for m in held.measurements:
                    measurements.append(
                        Measurement(
                            name=f"{name}.{m.name}",
                            joules=m.joules,
                            watts=m.watts,
                            quality="degraded",
                        )
                    )
                continue
            self._last_child_state[name] = state
            total_joules += state.joules
            total_watts += state.watts
            for m in state.measurements:
                measurements.append(
                    Measurement(
                        name=f"{name}.{m.name}",
                        joules=m.joules,
                        watts=m.watts,
                        quality=m.quality,
                    )
                )
        self.degraded_children = tuple(degraded)
        if len(degraded) == len(self._order):
            raise SensorError(
                "all composite children failed: " + ", ".join(self._order)
            )
        seen: dict[str, str] = {}
        for m in measurements:
            if m.name in seen:
                raise BackendError(
                    f"prefixed measurement name {m.name!r} exported by more "
                    "than one composite child"
                )
            seen[m.name] = m.name
        primary = Measurement(
            name="total",
            joules=total_joules,
            watts=total_watts,
            quality="degraded" if degraded else "ok",
        )
        return State(
            timestamp=self.clock.now,
            measurements=(primary, *measurements),
        )
