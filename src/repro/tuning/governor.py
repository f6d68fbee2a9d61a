"""Online energy-aware DVFS governor (closed-loop per-function clocks).

The optimizer in :mod:`repro.tuning.optimizer` replays an *offline*
oracle: sweep first, decide afterwards, and run the resulting clock
table.  The governor closes the loop at runtime instead — it rides along
a single instrumented run, learns each function's time/energy response
from the profiler's own region measurements, and steers
:class:`~repro.tuning.dynamic.DynamicDvfsApplication` through its normal
switch-latency machinery.  Nothing about the measurement pipeline
changes: the governor is a passive observer of values the profiler
already read, plus the ``frequency_for`` callable the application
consults at function boundaries.  Both run through
:func:`~repro.experiments.runner.run_scaled_experiment`, and both report
a :class:`GovernorReport` (the oracle as policy ``"oracle"``).

Three policies:

``min-energy``
    Per function, the explored candidate with the lowest mean GPU energy
    per call.

``min-edp``
    Per function, the candidate with the lowest mean energy x time
    product per call (the paper's figure of merit).

``power-cap``
    CEEC-style budget compliance: a rolling mean of node power (from the
    :class:`~repro.pmt.sampler.PmtSampler` tick stream) is held under
    ``power_cap_watts``.  The governor starts at the lowest candidate
    clock and only raises the ceiling after one full step cycle has been
    observed there, when a pessimistic projection of the next step up
    (quadratic clock-power prior, then a doubled-increment secant through
    the observed clock-power curve) still clears the cap — so the budget
    holds for the *whole* run, not just after the first overshoot.

Determinism: exploration order is a :func:`hashlib.blake2s` permutation
keyed by (seed, function) — seeded from the RunKey, never from wall
clock or global RNG state — and every model update is driven by the
virtual-clock-ordered profiler/sampler event stream, so a governed run
is bit-reproducible like every other run in the repo.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.config import GOVERNOR_POLICIES, SystemConfig
from repro.errors import ConfigurationError
from repro.hardware.dvfs import snap_to_supported
from repro.timeseries.rolling import RollingMean
from repro.tuning.dynamic import SWITCH_FUNCTION

#: Default fraction of the node's nominal peak power used as the cap
#: when ``power-cap`` is selected without an explicit budget.
DEFAULT_CAP_FRACTION = 0.8

#: Safety margin applied when projecting power for a ceiling raise.
DEFAULT_CAP_SAFETY = 0.97


@dataclass(frozen=True)
class GovernorConfig:
    """Everything that determines a governor's behaviour.

    The config is part of the campaign cache identity (via the policy
    name on the :class:`~repro.campaign.keys.RunKey` plus the config
    content the runner derives), so every field here must stay a plain
    hashable value.
    """

    policy: str
    #: Clock candidates the governor may choose from (MHz).  ``None``
    #: resolves to a system-dependent spread at runtime.
    candidates_mhz: tuple[float, ...] | None = None
    #: Functions whose mean call time is below this never earn a switch.
    dwell_s: float = 0.2
    #: Minimum fractional score improvement required to leave the
    #: currently running clock (switch damping).
    hysteresis: float = 0.02
    #: Observations required per (function, candidate) before the
    #: governor trusts the model and stops exploring that candidate.
    explore_visits: int = 1
    #: Rolling node-power budget in watts (``power-cap`` only).
    power_cap_watts: float | None = None
    #: Trailing window of the rolling power mean.
    rolling_window_s: float = 5.0
    #: Fraction of the cap a projected raise must clear.
    cap_safety: float = DEFAULT_CAP_SAFETY
    #: Exploration-order seed; campaigns pass the RunKey seed.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.policy not in GOVERNOR_POLICIES:
            raise ConfigurationError(
                f"unknown governor policy {self.policy!r}; "
                f"available: {GOVERNOR_POLICIES}"
            )
        if self.candidates_mhz is not None and not self.candidates_mhz:
            raise ConfigurationError("candidates_mhz must not be empty")
        if self.dwell_s < 0:
            raise ConfigurationError("dwell_s must be >= 0")
        if not 0 <= self.hysteresis < 1:
            raise ConfigurationError("hysteresis must be in [0, 1)")
        if self.explore_visits < 1:
            raise ConfigurationError("explore_visits must be >= 1")
        if self.rolling_window_s <= 0:
            raise ConfigurationError("rolling_window_s must be positive")
        if not 0 < self.cap_safety <= 1:
            raise ConfigurationError("cap_safety must be in (0, 1]")
        if self.policy == "power-cap":
            if self.power_cap_watts is None or self.power_cap_watts <= 0:
                raise ConfigurationError(
                    "power-cap policy requires a positive power_cap_watts"
                )

    @classmethod
    def for_system(
        cls,
        policy: str,
        system: SystemConfig,
        seed: int = 0,
        power_cap_watts: float | None = None,
    ) -> GovernorConfig:
        """The default governor for one system.

        Candidates are a five-point spread over the GPU's supported
        range (min, quartiles, nominal); the default cap is
        ``DEFAULT_CAP_FRACTION`` of the node's nominal peak power.
        """
        spec = system.node_spec
        supported = sorted(f / 1e6 for f in spec.gpu.supported_freqs_hz)
        picks = {
            supported[0],
            supported[len(supported) // 4],
            supported[len(supported) // 2],
            supported[(3 * len(supported)) // 4],
            spec.gpu.nominal_freq_hz / 1e6,
        }
        cap = power_cap_watts
        if policy == "power-cap" and cap is None:
            cap = DEFAULT_CAP_FRACTION * spec.peak_watts
        return cls(
            policy=policy,
            candidates_mhz=tuple(sorted(picks, reverse=True)),
            power_cap_watts=cap,
            seed=seed,
        )


@dataclass(frozen=True)
class GovernorReport:
    """What the governor (or an offline clock table) did during one run.

    A clock-table run reports ``policy="oracle"`` with its table and
    switch count; the online-only fields keep their defaults.
    """

    policy: str
    #: ``frequency_for`` consultations (one per function boundary).
    decisions: int
    #: Actual clock transitions the application performed.
    switches: int
    #: Function -> the clock (MHz) the governor settled on.
    clock_table: dict[str, float] = field(default_factory=dict)
    #: GPU energy attributed to the ``dvfs-switch`` transitions.
    switch_joules: float = 0.0
    power_cap_watts: float | None = None
    #: Highest rolling node-power mean observed on any node.
    max_rolling_watts: float = 0.0
    #: Sampler ticks whose rolling mean exceeded the cap (0 = compliant).
    cap_violation_ticks: int = 0


class _FreqStats:
    """Online time/energy accumulator for one (function, candidate)."""

    __slots__ = ("calls", "seconds", "gpu_joules")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.gpu_joules = 0.0

    def add(self, seconds: float, gpu_joules: float) -> None:
        self.calls += 1
        self.seconds += seconds
        self.gpu_joules += gpu_joules

    @property
    def mean_seconds(self) -> float:
        return self.seconds / self.calls if self.calls else 0.0

    @property
    def mean_joules(self) -> float:
        return self.gpu_joules / self.calls if self.calls else 0.0


class EnergyAwareGovernor:
    """A per-function clock source that learns online.

    Parameters
    ----------
    config:
        The governor configuration.
    supported_hz:
        The GPU frequency domain's supported set; candidates are snapped
        onto it so every decision is directly applicable.
    nominal_mhz:
        The clock the run starts at (exploration's reference point).
    """

    def __init__(
        self,
        config: GovernorConfig,
        supported_hz: tuple[float, ...],
        nominal_mhz: float,
    ) -> None:
        self.config = config
        raw = (
            config.candidates_mhz
            if config.candidates_mhz is not None
            else tuple(f / 1e6 for f in supported_hz)
        )
        snapped = {
            snap_to_supported(supported_hz, f * 1e6) / 1e6 for f in raw
        }
        #: Candidate clocks in MHz, fastest first.
        self.candidates = tuple(sorted(snapped, reverse=True))
        #: The clock a cold run starts at: the budget-safe floor under a
        #: power cap, the fastest candidate otherwise.
        self.default_mhz = (
            self.candidates[-1]
            if config.policy == "power-cap"
            else snap_to_supported(supported_hz, nominal_mhz * 1e6) / 1e6
        )
        self._clock_mhz = self.default_mhz
        self._stats: dict[str, dict[float, _FreqStats]] = {}
        self._explore: dict[str, tuple[float, ...]] = {}
        self.decisions = 0
        self.switch_joules = 0.0
        # -- power-cap state --
        self._rolling: dict[int, RollingMean] = {}
        self.max_rolling_watts = 0.0
        self.cap_violation_ticks = 0
        # Ceiling index into self.candidates (0 = fastest).  Under a cap
        # the run starts clamped to the slowest candidate and earns its
        # way up; other policies never clamp.
        self._ceiling_index = (
            len(self.candidates) - 1 if config.policy == "power-cap" else 0
        )
        self._last_change_t: float | None = None
        # Highest rolling peak seen since the ceiling last moved: raises
        # are projected from the worst phase observed at the current
        # clock, not from whatever quiet phase the raise tick lands in.
        self._peak_since_change = 0.0
        #: Worst rolling peak ever observed while each ceiling clock was
        #: active — the empirical clock -> power curve the raise
        #: projection extrapolates from.
        self._peak_at_clock: dict[float, float] = {}
        # The first function whose region completes on rank 0 marks the
        # application's step cycle; two sightings since the last ceiling
        # change prove one full phase mix ran at the current clock.
        self._marker: str | None = None
        self._marker_seen = 0

    # -- model updates (profiler region hook) -------------------------------

    def observe_region(
        self,
        rank: int,
        function: str,
        t0: float,
        t1: float,
        deltas: dict[str, float],
    ) -> None:
        """Profiler region-completion tap: one rank's measured call."""
        gpu = deltas.get("gpu", 0.0)
        if function == SWITCH_FUNCTION:
            self.switch_joules += gpu
            return
        if rank == 0:
            if self._marker is None:
                self._marker = function
            if function == self._marker:
                self._marker_seen += 1
        per_freq = self._stats.setdefault(function, {})
        stats = per_freq.get(self._clock_mhz)
        if stats is None:
            stats = per_freq[self._clock_mhz] = _FreqStats()
        stats.add(t1 - t0, gpu)

    # -- telemetry updates (sampler tick hook) -------------------------------

    def on_tick(self, node_index: int, tick) -> None:
        """Sampler tick tap: maintain rolling node power and the ceiling."""
        rolling = self._rolling.get(node_index)
        if rolling is None:
            rolling = self._rolling[node_index] = RollingMean(
                self.config.rolling_window_s
            )
        rolling.add(tick.timestamp, tick.watts)
        peak = max(r.mean for r in self._rolling.values())
        if peak > self.max_rolling_watts:
            self.max_rolling_watts = peak
        cap = self.config.power_cap_watts
        if self.config.policy != "power-cap" or cap is None:
            return
        if self._last_change_t is None:
            # Treat run start as a ceiling change: no raise until a full
            # settle window has sampled the workload's phase mix.
            self._last_change_t = tick.timestamp
        if peak > self._peak_since_change:
            self._peak_since_change = peak
        f_now = self.candidates[self._ceiling_index]
        if peak > self._peak_at_clock.get(f_now, 0.0):
            self._peak_at_clock[f_now] = peak
        if peak > cap:
            # A true budget excess; the pre-emptive clamp below should
            # make this unreachable, but count it honestly if it happens.
            self.cap_violation_ticks += 1
        if peak > self.config.cap_safety * cap:
            # Pre-emptive clamp: back off while the safety margin is
            # being eaten, *before* the budget itself is crossed.  The
            # rolling mean moves one sample at a time, so reacting at
            # ``cap_safety * cap`` leaves the margin to absorb the drift
            # until the lower clock takes effect at the next boundary.
            if self._ceiling_index < len(self.candidates) - 1:
                self._ceiling_index += 1
                self._last_change_t = tick.timestamp
                self._peak_since_change = peak
                self._marker_seen = 0
        elif self._ceiling_index > 0:
            # Raise only when the *projected* power at the next step up
            # still clears the cap with margin.  Three safeguards make an
            # overshoot structurally hard:
            #
            # 1. The projection starts from the worst rolling peak seen
            #    at the current ceiling, not the instantaneous mean a
            #    quiet phase deflates.
            # 2. That peak must cover one full step cycle (two marker
            #    sightings), so the workload's heaviest phase is in it.
            # 3. The increase is extrapolated pessimistically: a
            #    quadratic clock-power prior before any curve data
            #    exists, then a secant through the two highest observed
            #    clocks with the power increment doubled.
            f_up = self.candidates[self._ceiling_index - 1]
            settled = (
                tick.timestamp - self._last_change_t
                >= self.config.rolling_window_s
            )
            p_now = max(
                self._peak_since_change, self._peak_at_clock.get(f_now, 0.0)
            )
            lower = [
                (f, p)
                for f, p in self._peak_at_clock.items()
                if f < f_now and p > 0.0
            ]
            projected = p_now * (f_up / f_now) ** 2
            if lower:
                f_lo, p_lo = max(lower)
                slope = (p_now - p_lo) / (f_now - f_lo)
                if slope > 0:
                    projected = min(
                        projected, p_now + 2.0 * slope * (f_up - f_now)
                    )
            if (
                settled
                and self._marker_seen >= 2
                and projected <= self.config.cap_safety * cap
            ):
                self._ceiling_index -= 1
                self._last_change_t = tick.timestamp
                self._peak_since_change = peak
                self._marker_seen = 0

    # -- the policy interface -------------------------------------------------

    def _explore_order(self, function: str) -> tuple[float, ...]:
        order = self._explore.get(function)
        if order is None:
            order = tuple(
                sorted(
                    self.candidates,
                    key=lambda f: hashlib.blake2s(
                        f"{self.config.seed}:{function}:{f:.3f}".encode()
                    ).digest(),
                )
            )
            self._explore[function] = order
        return order

    def _score(self, stats: _FreqStats) -> float:
        if self.config.policy == "min-energy":
            return stats.mean_joules
        return stats.mean_joules * stats.mean_seconds  # min-edp

    def frequency_for(self, function: str) -> float | None:
        if function == SWITCH_FUNCTION:
            return None
        self.decisions += 1
        if self.config.policy == "power-cap":
            # Run as fast as the budget allows; the tick hook moves the
            # ceiling.  Dwell still applies so sub-dwell functions never
            # thrash the clock.
            per_freq = self._stats.get(function)
            if per_freq is not None and self._too_short(per_freq):
                return None
            target = self.candidates[self._ceiling_index]
            self._clock_mhz = target
            return target
        per_freq = self._stats.get(function)
        if per_freq is None:
            return None  # first sighting: observe at the running clock
        if self._too_short(per_freq):
            return None
        for cand in self._explore_order(function):
            visits = per_freq.get(cand)
            if visits is None or visits.calls < self.config.explore_visits:
                self._clock_mhz = cand
                return cand
        scored = {
            freq: self._score(stats)
            for freq, stats in per_freq.items()
            if stats.calls and freq in self.candidates
        }
        best = min(scored, key=lambda f: (scored[f], f))
        current = self._clock_mhz
        if best == current:
            return None
        cur_score = scored.get(current)
        if (
            cur_score is not None
            and cur_score > 0
            and scored[best] >= (1.0 - self.config.hysteresis) * cur_score
        ):
            return None  # improvement too small to earn a switch
        self._clock_mhz = best
        return best

    def _too_short(self, per_freq: dict[float, _FreqStats]) -> bool:
        calls = sum(s.calls for s in per_freq.values())
        seconds = sum(s.seconds for s in per_freq.values())
        if not calls:
            return False
        return seconds / calls < self.config.dwell_s

    # -- reporting -------------------------------------------------------------

    def clock_table(self) -> dict[str, float]:
        """Function -> the clock the governor currently favours (MHz)."""
        table = {}
        for function, per_freq in sorted(self._stats.items()):
            if function == SWITCH_FUNCTION or self._too_short(per_freq):
                continue
            if self.config.policy == "power-cap":
                table[function] = self.candidates[self._ceiling_index]
                continue
            scored = {
                freq: self._score(stats)
                for freq, stats in per_freq.items()
                if stats.calls and freq in self.candidates
            }
            if scored:
                table[function] = min(scored, key=lambda f: (scored[f], f))
        return table

    def report(self, switches: int = 0) -> GovernorReport:
        """Summarize the run (``switches`` from the application)."""
        return GovernorReport(
            policy=self.config.policy,
            decisions=self.decisions,
            switches=switches,
            clock_table=self.clock_table(),
            switch_joules=self.switch_joules,
            power_cap_watts=self.config.power_cap_watts,
            max_rolling_watts=self.max_rolling_watts,
            cap_violation_ticks=self.cap_violation_ticks,
        )
