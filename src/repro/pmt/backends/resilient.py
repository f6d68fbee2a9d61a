"""Resilient PMT wrapper: the measurement pipeline's one degradation ladder.

Wraps any concrete :class:`~repro.pmt.base.PMT` backend so that one failing
or lying sensor cannot abort an instrumented run or silently corrupt the
per-function attribution.  Every meter the profiler reads goes through
this wrapper, node-level and per-card window sources included:

1. **retry** — a failed ``read_state()`` is retried a bounded number of
   times (counted).  Retries re-read at the same instant: the clock is
   shared with the application, so a retry can never read ahead of it,
   and purely time-windowed faults fall through to step 2 — exactly like
   a real retry storm inside a long outage;
2. **interpolate** — on persistent failure, every measurement of the last
   good state is extrapolated from that state's timestamp at its last
   observed power and flagged ``interpolated``;
3. **degrade** — per-measurement stuck-counter detection (identical energy
   across advancing time under nonzero load) substitutes energy
   extrapolated from the anchor state's own timestamp, flagged
   ``extrapolated``; instantaneous powers above the hardware's
   plausibility bound are substituted and flagged ``rejected``;
4. **zero-baseline** — a failure before the very first good read serves a
   zero-power, zero-energy state shaped after the inner backend's
   :meth:`~repro.pmt.base.PMT.measurement_names` (energy accounting is
   relative, so a zero baseline keeps the run alive while the gap stays
   on the books); only a shapeless inner meter still raises.

All mitigations are tallied in a :class:`~repro.sensors.resilient.SensorHealth`
record, which the instrumentation layer surfaces in the run's telemetry
health table.

Composition note: wrap *leaf* meters and feed the wrapped children to
:class:`~repro.pmt.backends.composite.CompositePMT` — the composite then
sums extrapolated child values into a still-plausible primary, and its own
per-child isolation handles children that raise before any good read.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BackendError, SensorError
from repro.pmt.base import PMT
from repro.pmt.registry import register_backend
from repro.pmt.state import Measurement, State
from repro.sensors.resilient import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_STUCK_GRACE_S,
    DEFAULT_STUCK_MIN_JOULES,
    DEFAULT_STUCK_READS,
    SensorHealth,
)


@dataclass
class _StuckTrack:
    """Per-measurement stuck-counter streak state.

    ``anchor_t`` is the read instant of the anchor (the first read of the
    current identical-accumulator run) and ``anchor_ts`` that state's own
    timestamp: a sampled sensor stamps the tick it reflects, and a frozen
    one repeats its last tick, so extrapolation starts from ``anchor_ts``.
    ``trail_*`` hold a (time, joules) reference at least one grace period
    older than the anchor, so a detected freeze can be extrapolated at the
    trailing-average power instead of the instantaneous power the sensor
    happened to report at the freeze instant.
    """

    joules: float
    watts: float
    anchor_t: float
    anchor_ts: float
    trail_t: float
    trail_joules: float
    trail_next_t: float
    trail_next_joules: float
    streak: int = 0
    stuck: bool = False


@register_backend("resilient")
class ResilientPMT(PMT):
    """Fault-tolerant wrapper over one PMT backend.

    Parameters
    ----------
    inner:
        The meter to protect.
    label:
        Name used for this meter in health records (defaults to the inner
        backend's registry name).
    max_retries:
        Bounded ``read_state()`` re-attempts per read.
    plausible_max_watts:
        Physical ceiling for any single measurement's instantaneous power,
        from the hardware specs (``None`` disables glitch rejection).
    stuck_reads / min_expected_watts / stuck_min_joules / stuck_grace_s:
        Stuck-accumulator detection, applied per measurement: after
        ``stuck_reads`` consecutive reads with an identical accumulator
        while the expected draw (at least ``min_expected_watts``) should
        have added ``stuck_min_joules``, and at least ``stuck_grace_s`` of
        zero growth (longer than any healthy sensor's refresh period), the
        counter is declared stuck and its energy extrapolated.
    """

    def __init__(
        self,
        inner: PMT,
        *,
        label: str | None = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        plausible_max_watts: float | None = None,
        stuck_reads: int = DEFAULT_STUCK_READS,
        min_expected_watts: float = 1.0,
        stuck_min_joules: float = DEFAULT_STUCK_MIN_JOULES,
        stuck_grace_s: float = DEFAULT_STUCK_GRACE_S,
    ) -> None:
        if max_retries < 0:
            raise BackendError("max_retries must be >= 0")
        if stuck_reads < 1:
            raise BackendError("stuck_reads must be >= 1")
        if plausible_max_watts is not None and plausible_max_watts <= 0:
            raise BackendError("plausible_max_watts must be positive when set")
        super().__init__(inner.clock)
        self.inner = inner
        self.label = label if label is not None else inner.name
        self.max_retries = int(max_retries)
        self.plausible_max_watts = plausible_max_watts
        self.stuck_reads = int(stuck_reads)
        self.min_expected_watts = float(min_expected_watts)
        self.stuck_min_joules = float(stuck_min_joules)
        self.stuck_grace_s = float(stuck_grace_s)
        self.health = SensorHealth()
        self._last_good: State | None = None
        self._prev_t: float | None = None
        self._tracks: dict[str, _StuckTrack] = {}

    # -- degradation ladder -----------------------------------------------------

    def read_state(self) -> State:
        t = self.clock.now
        self.health.reads += 1
        state = self._attempt()
        if state is None:
            state = self._interpolate_state(t)
        else:
            # A healthy read substitutes nothing and serves the inner
            # state; the measurements are copied on the first substitution.
            measured = state.measurements
            ts = state.timestamp
            bound = self.plausible_max_watts
            served = None
            for i, m in enumerate(measured):
                s = m
                if bound is not None and not m.watts <= bound:
                    s = self._reject_glitch(m)
                s = self._track_stuck(t, ts, s)
                if s is not m:
                    if served is None:
                        served = list(measured)
                    served[i] = s
            if served is not None:
                # Extrapolated energy is the energy at the read instant.
                if any(s.quality == "extrapolated" for s in served):
                    ts = t
                state = State(timestamp=ts, measurements=tuple(served))
        self._last_good = state
        self._prev_t = t
        return state

    def _attempt(self) -> State | None:
        """Bounded retries.  The clock is shared with the application, so a
        retry cannot wait it out; time-windowed faults (dropouts) always
        exhaust the budget and fall through to interpolation — the counted
        retries still record how hard the meter was poked."""
        try:
            return self.inner.read_state()
        except SensorError:
            pass
        for _ in range(self.max_retries):
            self.health.retries += 1
            try:
                state = self.inner.read_state()
            except SensorError:
                continue
            self.health.retry_successes += 1
            return state
        return None

    def measurement_names(self) -> tuple[str, ...] | None:
        return self.inner.measurement_names()

    def _interpolate_state(self, t: float) -> State:
        last = self._last_good
        if last is None:
            # An outage covering the very first read: synthesize a zero
            # baseline in the inner backend's state shape.  Consumers
            # difference later states against this one, the gap is
            # counted, and any resulting imbalance is the audit layer's
            # to flag — a crash here would lose the whole run.
            names = self.inner.measurement_names()
            if names is None:
                raise SensorError(
                    f"meter {self.label!r} failed before its first good "
                    "read and does not declare its measurement names"
                )
            self.health.gaps_interpolated += 1
            self.health.degraded = True
            return State(
                timestamp=t,
                measurements=tuple(
                    Measurement(
                        name=name,
                        joules=0.0,
                        watts=0.0,
                        quality="interpolated",
                    )
                    for name in names
                ),
            )
        self.health.gaps_interpolated += 1
        if self._prev_t is not None:
            self.health.gap_seconds += max(0.0, t - self._prev_t)
        self.health.degraded = True
        dt = max(0.0, t - last.timestamp)
        return State(
            timestamp=t,
            measurements=tuple(
                Measurement(
                    name=m.name,
                    joules=m.joules + m.watts * dt,
                    watts=m.watts,
                    quality="interpolated",
                )
                for m in last.measurements
            ),
        )

    def _reject_glitch(self, m: Measurement) -> Measurement:
        """Substitute the power of a reading above the plausibility bound."""
        self.health.glitches_rejected += 1
        substitute = self.plausible_max_watts
        if self._last_good is not None and m.name in self._last_good.names():
            substitute = self._last_good.watts_of(m.name)
        return Measurement(
            name=m.name, joules=m.joules, watts=substitute, quality="rejected"
        )

    def _track_stuck(self, t: float, ts: float, m: Measurement) -> Measurement:
        track = self._tracks.get(m.name)
        if track is None:
            self._tracks[m.name] = _StuckTrack(
                joules=m.joules,
                watts=m.watts,
                anchor_t=t,
                anchor_ts=ts,
                trail_t=t,
                trail_joules=m.joules,
                trail_next_t=t,
                trail_next_joules=m.joules,
            )
            return m
        if m.joules != track.joules:
            # Accumulator moved (or thawed): healthy, reset the streak but
            # keep the trailing reference rolling forward.
            track.joules = m.joules
            track.watts = m.watts
            track.anchor_t = t
            track.anchor_ts = ts
            track.streak = 0
            track.stuck = False
            if t - track.trail_next_t >= self.stuck_grace_s:
                track.trail_t = track.trail_next_t
                track.trail_joules = track.trail_next_joules
                track.trail_next_t = t
                track.trail_next_joules = m.joules
            return m
        zero_growth_s = t - track.anchor_t
        if zero_growth_s >= self.stuck_grace_s and (
            zero_growth_s * max(m.watts, track.watts, self.min_expected_watts)
            >= self.stuck_min_joules
        ):
            track.streak += 1
            self.health.stuck_reads += 1
        if track.streak >= self.stuck_reads and not track.stuck:
            track.stuck = True
            self.health.stuck_detections += 1
            self.health.degraded = True
        if not track.stuck:
            return m
        # The freeze happened at most one read interval before the anchor,
        # whose own timestamp is the best estimate of the freeze instant.
        # Extrapolate at the trailing-average power (identical to the
        # frozen instantaneous power under steady load, far less biased
        # when the freeze lands inside a burst or an idle gap); the error
        # stays bounded by (read spacing + power drift) * elapsed time.
        watts = track.watts
        if track.anchor_t > track.trail_t:
            watts = (track.joules - track.trail_joules) / (
                track.anchor_t - track.trail_t
            )
        return Measurement(
            name=m.name,
            joules=track.joules + watts * max(0.0, t - track.anchor_ts),
            watts=watts,
            quality="extrapolated",
        )
