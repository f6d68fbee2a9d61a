"""Base class for simulated devices.

A device couples a :class:`~repro.hardware.power_model.PowerModel`, a
:class:`~repro.hardware.dvfs.FrequencyDomain` and a
:class:`~repro.hardware.trace.PowerTrace` on a shared
:class:`~repro.hardware.clock.VirtualClock`.  The simulation driver sets the
device's *load* (compute / memory utilization) at phase boundaries; the
device translates load + frequency into watts and records the breakpoint in
its trace.  Sensors never see the load — only the resulting power.
"""

from __future__ import annotations

from repro.errors import HardwareError
from repro.hardware.clock import VirtualClock
from repro.hardware.dvfs import FrequencyDomain
from repro.hardware.power_model import PowerModel
from repro.hardware.trace import PowerTrace


class Device:
    """A simulated power-drawing device.

    Parameters
    ----------
    name:
        Unique human-readable identifier, e.g. ``"node0.gpu3"``.
    clock:
        The shared simulation clock.
    power_model:
        Analytic power model for this device.
    frequency_domain:
        DVFS state; pass a single-frequency domain for devices without DVFS.
    """

    def __init__(
        self,
        name: str,
        clock: VirtualClock,
        power_model: PowerModel,
        frequency_domain: FrequencyDomain,
    ) -> None:
        self.name = name
        self.clock = clock
        self.power_model = power_model
        self.frequency = frequency_domain
        self._compute_utilization = 0.0
        self._memory_utilization = 0.0
        #: ``power_model.power`` by ``(frequency ratio, compute, memory)``.
        self._watts_memo: dict[tuple[float, float, float], float] = {}
        self.trace = PowerTrace(initial_watts=self._current_watts())
        # Record the idle level at creation time so traces created after
        # t=0 still integrate correctly from 0 (power before creation is
        # the same idle level, which is the physically sensible default).
        self.trace.set_power(clock.now, self._current_watts())

    # -- state --------------------------------------------------------------

    @property
    def compute_utilization(self) -> float:
        """Current fraction of peak compute issue rate in use."""
        return self._compute_utilization

    @property
    def memory_utilization(self) -> float:
        """Current fraction of peak memory bandwidth in use."""
        return self._memory_utilization

    def _current_watts(self) -> float:
        # A run revisits a few loads per device thousands of times.
        key = (
            self.frequency.ratio,
            self._compute_utilization,
            self._memory_utilization,
        )
        watts = self._watts_memo.get(key)
        if watts is None:
            watts = self._watts_memo[key] = self.power_model.power(*key)
        return watts

    # -- transitions --------------------------------------------------------

    def set_load(self, compute_utilization: float, memory_utilization: float) -> None:
        """Change the device load at the current simulated time."""
        if (
            compute_utilization == self._compute_utilization
            and memory_utilization == self._memory_utilization
        ):
            # The trace already holds this load's power.
            return
        if not 0.0 <= compute_utilization <= 1.0:
            raise HardwareError(
                f"compute utilization {compute_utilization!r} outside [0, 1]"
            )
        if not 0.0 <= memory_utilization <= 1.0:
            raise HardwareError(
                f"memory utilization {memory_utilization!r} outside [0, 1]"
            )
        self._compute_utilization = compute_utilization
        self._memory_utilization = memory_utilization
        self.trace.set_power(self.clock.now, self._current_watts())

    def set_idle(self) -> None:
        """Drop to idle load at the current simulated time."""
        self.set_load(0.0, 0.0)

    def set_frequency(self, freq_hz: float, privileged: bool = False) -> None:
        """Change the device frequency; power is re-evaluated immediately."""
        self.frequency.set_frequency(freq_hz, privileged=privileged)
        self.trace.set_power(self.clock.now, self._current_watts())

    # -- observation (ground truth) ------------------------------------------

    def power_now(self) -> float:
        """Ground-truth instantaneous power right now, in watts."""
        return self.trace.power_at(self.clock.now)

    def energy_between(self, t0: float, t1: float) -> float:
        """Ground-truth energy in joules over ``[t0, t1]``."""
        return self.trace.energy_between(t0, t1)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"P={self.power_now():.1f} W)"
        )
