"""The PMT energy profiler attached to the SPH-EXA hooks.

Per rank, the profiler snapshots the relevant PMT counters when a
function-call region begins and when *that rank's* call completes, and
accumulates the deltas into per-(rank, function) records.  Counter
sources per platform:

* **Cray (LUMI-G)** — one ``cray`` PMT meter per node delivers node, CPU,
  memory and per-card accelerator counters in a single read; a rank's
  ``gpu`` counter is its card's ``accelN`` (shared with its card-mate GCD).
* **NVML systems (CSCS-A100, miniHPC)** — a per-rank ``nvml`` meter for
  the GPU, a shared per-node ``rapl`` meter for the CPU, a private meter
  over the Slurm node-energy source (the IPMI sensor) for the node
  counter, and one per-card ``nvml`` window meter per node card.  No
  memory counter exists (Figure 2's "Other" therefore absorbs memory on
  these systems).

Reads at identical simulated timestamps are cached per node, matching the
fact that co-located ranks reading the same counter at the same instant
see the same value.  Each node keeps one slot: the freshest timestamp.

By default every meter is wrapped in the resilient layer
(:class:`~repro.pmt.backends.resilient.ResilientPMT`, the one degradation
ladder), so a failing or lying sensor degrades — retried, interpolated,
flagged — instead of aborting the run.  Glitch plausibility bounds come
from the hardware specs' nominal peak powers.  Every mitigation is accounted: each
:class:`FunctionEnergyRecord` carries the health-counter deltas that fired
while the region was open, and :meth:`gather` emits one
:class:`TelemetryHealthRecord` per node.  The profiler owns its meters, so
a node's health totals only change when the profiler reads one of that
node's meters; it keeps the totals per node and re-sums them only after
such a read.  On a healthy run the resilient layer is value-transparent:
all measured energies are bit-identical to an unwrapped
(``resilient=False``) run.
"""

from __future__ import annotations

from operator import add, attrgetter

from repro.config import SystemConfig
from repro.errors import MeasurementError
from repro.instrumentation.records import (
    FunctionEnergyRecord,
    NodeWindowRecord,
    RunMeasurements,
    TelemetryHealthRecord,
)
from repro.mpi.mapping import RankPlacement
from repro.pmt.backends.cray import CrayPMT
from repro.pmt.backends.nvml import NvmlPMT
from repro.pmt.backends.rapl import RaplPMT
from repro.pmt.backends.resilient import ResilientPMT
from repro.pmt.base import PMT
from repro.pmt.state import Measurement, State
from repro.sensors.resilient import GLITCH_MARGIN, SensorHealth, diff_counters
from repro.sensors.telemetry import NodeTelemetry

#: One meter's health counters as a tuple, in ``COUNTER_FIELDS`` order.
_health_fields = attrgetter(*SensorHealth.COUNTER_FIELDS)

#: The names of a node's health totals; RAPL nodes add the last one.
_HEALTH_NAMES = SensorHealth.COUNTER_FIELDS + ("suspect_intervals",)


class _SlurmNodePMT(PMT):
    """The Slurm node-level energy source as a meter.

    Private to the profiler (not a registered backend).  The state keeps
    the sensor reading's own timestamp, the tick it reflects.
    """

    def __init__(self, telemetry: NodeTelemetry) -> None:
        super().__init__(telemetry.node.clock)
        self._telemetry = telemetry

    def measurement_names(self) -> tuple[str, ...]:
        return ("node",)

    def read_state(self) -> State:
        reading = self._telemetry.slurm_energy_reading(self.clock.now)
        return State(
            timestamp=reading.timestamp,
            measurements=(
                Measurement(name="node", joules=reading.joules, watts=reading.watts),
            ),
        )


class EnergyProfiler:
    """Per-rank, per-function PMT measurement collection."""

    def __init__(
        self,
        placement: RankPlacement,
        telemetries: list[NodeTelemetry],
        system: SystemConfig,
        resilient: bool = True,
    ) -> None:
        if len(telemetries) != placement.cluster.num_nodes:
            raise MeasurementError("one telemetry per node required")
        self.placement = placement
        self.telemetries = telemetries
        self.system = system
        self.resilient = resilient
        self.clock = placement.cluster.clock

        spec = placement.cluster.node_spec
        node_bound = GLITCH_MARGIN * spec.peak_watts
        card_bound = GLITCH_MARGIN * spec.card_peak_watts

        num_nodes = len(telemetries)
        self._cray: list[PMT | None] = [None] * num_nodes
        self._rapl: list[PMT | None] = [None] * num_nodes
        #: Unwrapped RAPL backends (for ``suspect_intervals`` accounting).
        self._rapl_raw: list[RaplPMT | None] = [None] * num_nodes
        self._nvml: dict[int, PMT] = {}
        self._node_meter: list[PMT | None] = [None] * num_nodes
        self._window_meters: list[list[PMT]] = [[] for _ in range(num_nodes)]
        #: Per node: ``(child_name, resilient meter)`` in wiring order.
        self._health_sources: list[list[tuple[str, ResilientPMT]]] = [
            [] for _ in range(num_nodes)
        ]

        def guard(node_index: int, meter: PMT, label: str, bound) -> PMT:
            """Wrap ``meter`` in the ladder (unless disabled) and book it."""
            if not resilient:
                return meter
            meter = ResilientPMT(meter, label=label, plausible_max_watts=bound)
            self._health_sources[node_index].append((label, meter))
            return meter

        if system.pmt_backend == "cray":
            for node_index, tel in enumerate(telemetries):
                self._cray[node_index] = guard(
                    node_index, CrayPMT(telemetry=tel), "cray", node_bound
                )
        else:
            for node_index, tel in enumerate(telemetries):
                raw = RaplPMT(telemetry=tel)
                self._rapl_raw[node_index] = raw
                # No glitch bound: RAPL has no power register — its watts
                # are *derived* by differencing energy reads, and two reads
                # closer together than the register refresh alias into
                # arbitrarily large (legitimate) spikes.
                self._rapl[node_index] = guard(node_index, raw, "cpu", None)
                self._node_meter[node_index] = guard(
                    node_index, _SlurmNodePMT(tel), "node", node_bound
                )
                self._window_meters[node_index] = [
                    guard(
                        node_index,
                        NvmlPMT(telemetry=tel, device_index=i),
                        f"gpu{i}",
                        card_bound,
                    )
                    for i in range(len(tel.nvml))
                ]

            for rank in range(placement.size):
                loc = placement.location(rank)
                self._nvml[rank] = guard(
                    loc.node_index,
                    NvmlPMT(
                        telemetry=telemetries[loc.node_index],
                        device_index=loc.card_index,
                    ),
                    f"gpu{loc.card_index}",
                    card_bound,
                )

        #: Optional :class:`~repro.timeseries.spans.SpanRecorder`: when
        #: set, every begin/end mark also records a region span (pure
        #: observation — no PMT read happens on its behalf, so measured
        #: energies are unchanged).
        self.span_recorder = None
        #: Optional :class:`~repro.audit.hooks.EnergyAuditor`: when set,
        #: every node-counter snapshot and closed region is checked
        #: against the accounting invariants.  Like the span recorder it
        #: only observes values already read — audited energies are
        #: bit-identical to unaudited ones.
        self.auditor = None
        #: Optional callable ``(rank, function, t0, t1, deltas)`` fired
        #: after every closed region — the DVFS governor's model-update
        #: tap.  Same contract as the other hooks: it receives values the
        #: profiler already read and must not advance the clock, so
        #: attaching it never perturbs a measurement.
        self.region_listener = None

        #: Per node: ``(timestamp, counters)`` of the freshest snapshot.
        self._node_cache: list[tuple[float, dict[str, float]] | None] = [
            None
        ] * num_nodes
        #: Per node: the health totals in ``_HEALTH_NAMES`` order, or
        #: ``None`` once a read may have changed them.
        self._health_totals: list[tuple[float, ...] | None] = [None] * num_nodes
        self._open: dict[
            int, tuple[float, dict[str, float], tuple[float, ...] | None]
        ] = {}
        self._records: dict[tuple[int, str], FunctionEnergyRecord] = {}
        self._app_window: tuple[float, list[dict[str, float]]] | None = None
        self._app_end: tuple[float, list[dict[str, float]]] | None = None

    # -- snapshots --------------------------------------------------------------

    def _node_counters(self, node_index: int) -> dict[str, float]:
        """Node-shared counters (cached by simulated timestamp)."""
        now = self.clock.now
        cached = self._node_cache[node_index]
        if cached is not None and cached[0] == now:
            return cached[1]
        self._health_totals[node_index] = None
        out: dict[str, float]
        cray = self._cray[node_index]
        if cray is not None:
            # The cray meter's measurement names are the counter names
            # (node, cpu, memory if present, accel0..), in that order.
            out = {m.name: m.joules for m in cray.read().measurements}
        else:
            rapl = self._rapl[node_index]
            node_meter = self._node_meter[node_index]
            assert rapl is not None and node_meter is not None
            out = {"cpu": rapl.read().joules, "node": node_meter.read().joules}
            # Per-card window counters are read at every boundary too: the
            # stuck detector needs a read cadence much finer than the app
            # window to catch a mid-run freeze before end_app().
            for i, meter in enumerate(self._window_meters[node_index]):
                out[f"accel{i}"] = meter.read().joules
        self._node_cache[node_index] = (now, out)
        if self.auditor is not None:
            self.auditor.on_counters(node_index, now, out)
        return out

    def snapshot(self, rank: int) -> dict[str, float]:
        """This rank's canonical counters (joules) right now."""
        loc = self.placement.location(rank)
        shared = self._node_counters(loc.node_index)
        out = {"node": shared["node"], "cpu": shared["cpu"]}
        if "memory" in shared:
            out["memory"] = shared["memory"]
        if self.system.pmt_backend == "cray":
            out["gpu"] = shared[f"accel{loc.card_index}"]
        else:
            self._health_totals[loc.node_index] = None
            out["gpu"] = self._nvml[rank].read().joules
        return out

    # -- telemetry health -----------------------------------------------------------

    def _node_health_totals(self, node_index: int) -> tuple[float, ...]:
        """Aggregate mitigation counters of every meter of one node.

        Summed in wiring order, exactly as :meth:`SensorHealth.add` would,
        and kept until the next read of one of the node's meters.  Every
        node of a resilient profiler has at least one meter.
        """
        total = self._health_totals[node_index]
        if total is not None:
            return total
        sources = self._health_sources[node_index]
        total = _health_fields(sources[0][1].health)
        for _, source in sources[1:]:
            total = tuple(map(add, total, _health_fields(source.health)))
        raw = self._rapl_raw[node_index]
        if raw is not None:
            total += (float(raw.suspect_intervals),)
        self._health_totals[node_index] = total
        return total

    # -- region instrumentation ----------------------------------------------------

    def begin(self, rank: int) -> None:
        """Called when a rank enters an instrumented function region."""
        if rank in self._open:
            raise MeasurementError(f"rank {rank} already has an open region")
        node_index = self.placement.location(rank).node_index
        health = None
        if self.resilient:
            health = self._node_health_totals(node_index)
        self._open[rank] = (self.clock.now, self.snapshot(rank), health)
        if self.span_recorder is not None:
            self.span_recorder.begin(rank, self.clock.now, node_index=node_index)

    def end(self, rank: int, function: str) -> None:
        """Called when a rank's function call completes (its own end time)."""
        try:
            t0, start, health0 = self._open.pop(rank)
        except KeyError:
            raise MeasurementError(
                f"rank {rank} has no open region to end"
            ) from None
        end = self.snapshot(rank)
        deltas = {name: end[name] - start[name] for name in start}
        health = None
        if health0 is not None:
            health = diff_counters(
                _HEALTH_NAMES,
                self._node_health_totals(
                    self.placement.location(rank).node_index
                ),
                health0,
            )
        key = (rank, function)
        record = self._records.get(key)
        if record is None:
            record = FunctionEnergyRecord(rank=rank, function=function)
            self._records[key] = record
        record.accumulate(self.clock.now - t0, deltas, health)
        if self.region_listener is not None:
            self.region_listener(rank, function, t0, self.clock.now, deltas)
        if self.auditor is not None:
            self.auditor.on_region(rank, function, t0, self.clock.now, deltas)
        if self.span_recorder is not None:
            self.span_recorder.end(rank, function, self.clock.now)

    # -- run window -----------------------------------------------------------------

    def _window_snapshots(self) -> list[dict[str, float]]:
        # The node-shared snapshot already carries every counter the window
        # needs (accel counters included, on both platform families).
        return [
            dict(self._node_counters(node_index))
            for node_index in range(len(self.telemetries))
        ]

    def start_app(self) -> None:
        """Mark the start of the instrumented window (first time-step)."""
        self._app_window = (self.clock.now, self._window_snapshots())
        if self.span_recorder is not None:
            self.span_recorder.instant("app_start", self.clock.now)

    def end_app(self) -> None:
        """Mark the end of the instrumented window (last time-step)."""
        if self._app_window is None:
            raise MeasurementError("end_app() without start_app()")
        self._app_end = (self.clock.now, self._window_snapshots())
        if self.span_recorder is not None:
            self.span_recorder.instant("app_end", self.clock.now)

    # -- gather -----------------------------------------------------------------------

    def _health_records(self) -> list[TelemetryHealthRecord]:
        """One telemetry-health summary per node (resilient runs only)."""
        records = []
        for node_index in range(len(self.telemetries)):
            total = SensorHealth()
            degraded: dict[str, None] = {}
            for child, source in self._health_sources[node_index]:
                total.add(source.health)
                if source.health.degraded:
                    degraded.setdefault(child)
            raw = self._rapl_raw[node_index]
            suspect = raw.suspect_intervals if raw is not None else 0
            if suspect:
                # The CPU meter served at least one possibly-undercounting
                # (multi-wrap) RAPL interval.
                degraded.setdefault("cpu")
            records.append(
                TelemetryHealthRecord(
                    node_index=node_index,
                    suspect_intervals=suspect,
                    degraded_children=list(degraded),
                    status="degraded" if degraded else "ok",
                    **total.counters(),
                )
            )
        return records

    def gather(
        self,
        test_case: str,
        num_steps: int,
        particles_per_rank: float,
    ) -> RunMeasurements:
        """Collect all per-rank records (the end-of-run MPI gather)."""
        if self._app_window is None or self._app_end is None:
            raise MeasurementError("gather() requires a completed app window")
        t_start, snaps_start = self._app_window
        t_end, snaps_end = self._app_end

        windows: list[NodeWindowRecord] = []
        for node_index, tel in enumerate(self.telemetries):
            s0, s1 = snaps_start[node_index], snaps_end[node_index]
            cards = [
                s1[f"accel{i}"] - s0[f"accel{i}"]
                for i in range(len(tel.node.cards))
            ]
            windows.append(
                NodeWindowRecord(
                    node_index=node_index,
                    node_joules=s1["node"] - s0["node"],
                    cpu_joules=s1["cpu"] - s0["cpu"],
                    memory_joules=(
                        s1["memory"] - s0["memory"] if "memory" in s0 else None
                    ),
                    card_joules=cards,
                )
            )

        gpu_freq = self.placement.gpu_of(0).frequency.current_hz / 1e6
        return RunMeasurements(
            system_name=self.system.name,
            test_case=test_case,
            num_ranks=self.placement.size,
            num_nodes=self.placement.cluster.num_nodes,
            gcds_per_card=self.placement.cluster.node_spec.gpu.gcds_per_card,
            gpu_freq_mhz=gpu_freq,
            num_steps=num_steps,
            particles_per_rank=particles_per_rank,
            app_start=t_start,
            app_end=t_end,
            records=sorted(
                self._records.values(), key=lambda r: (r.rank, r.function)
            ),
            node_windows=windows,
            telemetry_health=self._health_records() if self.resilient else [],
        )
