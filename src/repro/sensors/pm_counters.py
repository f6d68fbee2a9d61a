"""HPE/Cray ``pm_counters`` telemetry.

On HPE/Cray EX systems (LUMI-G), the blade BMC exposes node-level telemetry
as small text files under ``/sys/cray/pm_counters``::

    power            # whole node, watts
    energy           # whole node, joules (monotonic accumulator)
    cpu_power / cpu_energy
    memory_power / memory_energy
    accel0_power / accel0_energy ... accelN_*   # one per GPU *card*

File contents look like ``"284 W 1663261174293871 us"`` — integer value,
unit, microsecond timestamp.  The counters refresh at ~10 Hz with integer
watt/joule resolution.  Crucially, there is one ``accel`` counter per
physical card: on MI250X nodes two MPI ranks (two GCDs) share one counter,
which is the attribution problem Sections 2/3.1 of the paper discuss.
"""

from __future__ import annotations

from repro.errors import SensorError
from repro.hardware.node import Node
from repro.sensors.base import SampledEnergyCounter, SensorReading
from repro.sensors.sysfs import VirtualSysfs

#: Default pm_counters refresh cadence (10 Hz).
PM_COUNTERS_PERIOD_S = 0.1

#: pm_counters sysfs directory.
PM_COUNTERS_DIR = "/sys/cray/pm_counters"


def _format_pm_file(value: float, unit: str, t: float) -> str:
    """Render a pm_counters file body: ``"<int> <unit> <usecs> us"``."""
    return f"{int(value)} {unit} {int(t * 1e6)} us"


class PmCounters:
    """The pm_counters counter set of one node.

    Parameters
    ----------
    node:
        The node whose ground-truth traces the BMC observes.
    sysfs:
        Virtual sysfs to register the counter files in.
    include_memory:
        Whether the platform provides the ``memory_*`` files (LUMI-G does).
    seed:
        Base seed for the (deterministic) sensor noise streams.
    """

    def __init__(
        self,
        node: Node,
        sysfs: VirtualSysfs,
        include_memory: bool = True,
        seed: int = 0,
        period_s: float = PM_COUNTERS_PERIOD_S,
    ) -> None:
        self.node = node
        self.sysfs = sysfs
        self.period_s = period_s

        def counter(trace, offset: int) -> SampledEnergyCounter:
            # Real pm_counters accumulate since node boot: start each
            # counter at a deterministic nonzero base so consumers that
            # forget to difference two reads fail loudly in tests.
            base = float((seed * 131 + offset * 977_351) % 400_000_000)
            return SampledEnergyCounter(
                trace,
                refresh_period_s=period_s,
                watts_quantum=1.0,
                energy_quantum=1.0,
                noise_sigma_watts=0.0,
                seed=seed + offset,
                initial_joules=base,
            )

        # Counters live in a dict keyed by file stem, and the registered
        # sysfs readers look the counter up *at read time* — so the fault
        # injection layer (repro.sensors.inject) can swap a counter for a
        # fault-wrapped one and every consumer path sees the fault.
        self.counters: dict[str, SampledEnergyCounter] = {"": counter(node.trace, 1)}
        self.counters["cpu"] = counter(node.cpu.trace, 2)
        if include_memory:
            self.counters["memory"] = counter(node.memory.trace, 3)
        for i, card in enumerate(node.cards):
            self.counters[f"accel{i}"] = counter(card.trace, 10 + i)

        self._register_files()

    # -- counter accessors (late-binding aliases) -------------------------------

    @property
    def node_counter(self) -> SampledEnergyCounter:
        """The whole-node counter."""
        return self.counters[""]

    @property
    def memory_counter(self) -> SampledEnergyCounter | None:
        """The memory counter, if the platform provides one."""
        return self.counters.get("memory")

    # -- sysfs surface --------------------------------------------------------

    def _register_pair(self, stem: str) -> None:
        self.sysfs.register(
            f"{PM_COUNTERS_DIR}/{stem}_power" if stem else f"{PM_COUNTERS_DIR}/power",
            lambda t, k=stem: _format_pm_file(self.counters[k].read(t).watts, "W", t),
        )
        self.sysfs.register(
            f"{PM_COUNTERS_DIR}/{stem}_energy" if stem else f"{PM_COUNTERS_DIR}/energy",
            lambda t, k=stem: _format_pm_file(self.counters[k].read(t).joules, "J", t),
        )

    def _register_files(self) -> None:
        for stem in self.counters:
            self._register_pair(stem)

    # -- direct reads ----------------------------------------------------------

    def read_file_values(self, stem: str, t: float) -> tuple[float, float]:
        """``(watts, joules)`` of one ``<stem>_power`` / ``<stem>_energy``
        pair at time ``t``, as the two files report them.

        One counter read serves both values, truncated to integers exactly
        as :func:`_format_pm_file` renders them, so each equals the value
        field of its file.  The counter is looked up at
        read time, like the file readers, so injected faults apply.
        """
        reading = self.counters[stem].read(t)
        return float(int(reading.watts)), float(int(reading.joules))

    def read_node(self, t: float) -> SensorReading:
        """Node-level counter state at time ``t``."""
        return self.node_counter.read(t)

    def read_memory(self, t: float) -> SensorReading:
        """Memory counter state; raises if the platform lacks the sensor."""
        if self.memory_counter is None:
            raise SensorError("this platform has no memory pm_counters files")
        return self.memory_counter.read(t)

    def read_accel(self, card_index: int, t: float) -> SensorReading:
        """Per-card accelerator counter state at time ``t``."""
        try:
            sensor = self.counters[f"accel{card_index}"]
        except KeyError:
            raise SensorError(
                f"no accel counter {card_index} (node has "
                f"{len(self.node.cards)} cards)"
            ) from None
        return sensor.read(t)
