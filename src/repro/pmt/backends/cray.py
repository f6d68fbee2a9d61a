"""HPE/Cray PMT backend: reads ``pm_counters`` files.

This is the backend the paper highlights: Slurm only reports node-level
energy from the same counters, but PMT reads *all* of them — node, CPU,
memory and per-card accelerators — so a single ``read()`` carries the full
device breakdown (Figure 2) in one state.

A read takes one typed counter read per file stem
(:meth:`~repro.sensors.pm_counters.PmCounters.read_file_values`) instead of
formatting and parsing the two text files ``"284 W 1663261174293871 us"``
the real backend reads.  The text files stay registered in the virtual
sysfs as the fidelity reference: the tests check that every typed value
equals the value parsed from its file, faults included.
"""

from __future__ import annotations

from repro.errors import BackendError
from repro.pmt.base import PMT
from repro.pmt.registry import register_backend
from repro.pmt.state import Measurement, State
from repro.sensors.telemetry import NodeTelemetry


@register_backend("cray")
class CrayPMT(PMT):
    """PMT over HPE/Cray pm_counters.

    Parameters
    ----------
    telemetry:
        The node's telemetry (must have pm_counters, i.e. a Cray platform).
    """

    def __init__(self, telemetry: NodeTelemetry) -> None:
        if telemetry.pm_counters is None:
            raise BackendError(
                f"node {telemetry.node.name} has no pm_counters; the cray "
                "backend requires an HPE/Cray platform"
            )
        super().__init__(telemetry.node.clock)
        self.telemetry = telemetry
        self._pm = telemetry.pm_counters
        stems = ["", "cpu"]
        if self._pm.memory_counter is not None:
            stems.append("memory")
        stems += [f"accel{i}" for i in range(len(telemetry.node.cards))]
        self._stems = [(stem, stem or "node") for stem in stems]

    def measurement_names(self) -> tuple[str, ...]:
        return tuple(name for _, name in self._stems)

    def read_state(self) -> State:
        t = self.clock.now
        read = self._pm.read_file_values
        measurements = []
        for stem, name in self._stems:
            watts, joules = read(stem, t)
            measurements.append(Measurement(name=name, joules=joules, watts=watts))
        return State(timestamp=t, measurements=tuple(measurements))
