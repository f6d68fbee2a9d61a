"""AMD ROCm-SMI hwmon power telemetry.

AMD GPUs expose average socket power through hwmon sysfs::

    /sys/class/drm/card{i}/device/hwmon/hwmon0/power1_average   # microwatts

As with pm_counters, the file reports per *card* (per MI250X package, i.e.
both GCDs together).  There is no energy accumulator on older stacks, so a
consumer (PMT's ROCm backend) must poll power and integrate — our backend
does exactly that, exercising the polling-integration code path.
"""

from __future__ import annotations

from repro.hardware.gpu import GpuCard
from repro.sensors.base import SampledEnergyCounter, SensorReading
from repro.sensors.sysfs import VirtualSysfs

#: hwmon refresh period for the average-power register.
ROCM_PERIOD_S = 0.02


class RocmCard:
    """The ROCm-SMI hwmon view of one GPU card."""

    def __init__(
        self, card: GpuCard, index: int, sysfs: VirtualSysfs, seed: int = 0
    ) -> None:
        self.card = card
        self.index = index
        self.counter = SampledEnergyCounter(
            card.trace,
            refresh_period_s=ROCM_PERIOD_S,
            watts_quantum=1e-6,
            energy_quantum=1e-6,
            noise_sigma_watts=1.0,
            seed=seed + 1000 + index,
        )
        self.hwmon_path = (
            f"/sys/class/drm/card{index}/device/hwmon/hwmon0/power1_average"
        )
        sysfs.register(
            self.hwmon_path,
            lambda t: str(int(round(self.counter.read(t).watts * 1e6))),
        )

    def read(self, t: float) -> SensorReading:
        """Raw counter state (SI units) at time ``t``."""
        return self.counter.read(t)
