"""PMT — Power Measurement Toolkit (simulated-platform port).

A faithful reimplementation of the PMT API (Corda et al., HUST 2022) that
the paper integrates into SPH-EXA.  The public surface mirrors the original
toolkit's Python bindings:

>>> import repro.pmt as pmt
>>> meter = pmt.create("cray", telemetry=node_telemetry)
>>> start = meter.read()
>>> # ... run the instrumented region ...
>>> end = meter.read()
>>> pmt.PMT.joules(start, end)     # energy over the region
>>> pmt.PMT.watts(start, end)      # average power over the region
>>> pmt.PMT.seconds(start, end)    # region duration

Backends: ``cray`` (pm_counters), ``nvml``, ``rapl``, ``rocm``, ``dummy``.
Each backend reads the simulated sensors through their native interfaces
(virtual sysfs files, NVML-style calls, or for ``cray`` a typed read equal
to the parsed files), so it inherits their cadence, quantization,
wraparound and attribution semantics.
"""

from repro.pmt.state import Measurement, State
from repro.pmt.base import PMT
from repro.pmt.registry import available_backends, create, register_backend
from repro.pmt.sampler import PmtSampler

# Importing the backends registers them with the factory.
from repro.pmt.backends import (  # noqa: F401
    composite,
    cray,
    dummy,
    nvml,
    rapl,
    resilient,
    rocm,
)

__all__ = [
    "Measurement",
    "State",
    "PMT",
    "create",
    "register_backend",
    "available_backends",
    "PmtSampler",
]
