"""Simulated power/energy sensors.

Sensors observe the ground-truth power traces of :mod:`repro.hardware`
imperfectly, reproducing the measurement realities the paper's methodology
deals with:

* finite refresh cadence (pm_counters ~10 Hz, NVML ~20 Hz, IPMI ~1 Hz);
* quantization (integer watts/joules on Cray, mW on NVML, 15.3 uJ on RAPL);
* counter wraparound (RAPL 32-bit microjoule accumulators);
* attribution granularity (per *card*, not per GCD, on MI250X);
* sensor noise (NVML board-power estimation error).

Each concrete sensor family also exposes its native *file format* through a
:class:`~repro.sensors.sysfs.VirtualSysfs`, so the PMT backends read strings
from paths exactly the way the real toolkit reads ``/sys`` files.  The one
exception is pm_counters, whose backend takes a typed read equal to the
parsed files (:meth:`~repro.sensors.pm_counters.PmCounters.read_file_values`).
"""

from repro.sensors.base import SampledEnergyCounter, SensorReading
from repro.sensors.sysfs import VirtualSysfs
from repro.sensors.pm_counters import PmCounters
from repro.sensors.rapl import RaplPackage
from repro.sensors.nvml import NvmlGpu
from repro.sensors.rocm import RocmCard
from repro.sensors.ipmi import IpmiNode
from repro.sensors.telemetry import NodeTelemetry
from repro.sensors.resilient import SensorHealth
from repro.sensors.inject import FAULT_KINDS, inject_fault

__all__ = [
    "SampledEnergyCounter",
    "SensorReading",
    "VirtualSysfs",
    "PmCounters",
    "RaplPackage",
    "NvmlGpu",
    "RocmCard",
    "IpmiNode",
    "NodeTelemetry",
    "SensorHealth",
    "FAULT_KINDS",
    "inject_fault",
]
