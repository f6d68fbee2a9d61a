"""Instrumented application with per-function dynamic DVFS.

Identical to :class:`~repro.sph.scaled.ScaledSphApplication` except that
before every loop function each rank's GPU clock is set to the clock
``clock_for(function)`` names: the online governor's ``frequency_for``, or
an offline clock table's ``get``.  ``None`` keeps the running clock.
Frequency transitions are not free: each actual switch costs
``DVFS_SWITCH_LATENCY_S`` with the GPU idle, which is why naive
per-function switching can lose on very short functions — a clock has to
earn the switch.

The switch idle time is measured as its own profiler region,
``SWITCH_FUNCTION`` (``"dvfs-switch"``): the PLL-relock energy belongs to
the *transition*, not to whichever function happens to run next, and the
function-partition audit invariant accounts for it explicitly instead of
absorbing it into a neighbouring function's window.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SimulationError
from repro.instrumentation.profiler import EnergyProfiler
from repro.mpi.engine import RankWork, SpmdEngine
from repro.sph.perfmodel import SphPerformanceModel
from repro.sph.scaled import ScaledSphApplication
from repro.units import mhz

#: Time to reprogram the GPU clock (driver + PLL relock), per switch.
DVFS_SWITCH_LATENCY_S = 0.010

#: Profiler region that absorbs the switch-latency idle energy.
SWITCH_FUNCTION = "dvfs-switch"


class DynamicDvfsApplication(ScaledSphApplication):
    """Paper-scale run that re-clocks the GPU at function boundaries.

    ``privileged`` applies frequency changes with site privileges, the
    mode a system-operated governor runs in on machines whose clocks are
    not user controllable (LUMI-G, CSCS-A100).
    """

    def __init__(
        self,
        engine: SpmdEngine,
        profiler: EnergyProfiler,
        perfmodel: SphPerformanceModel,
        functions: tuple[str, ...],
        num_steps: int,
        test_case_name: str,
        clock_for: Callable[[str], float | None],
        switch_latency_s: float = DVFS_SWITCH_LATENCY_S,
        privileged: bool = False,
    ) -> None:
        super().__init__(
            engine, profiler, perfmodel, functions, num_steps, test_case_name
        )
        if switch_latency_s < 0:
            raise SimulationError("switch latency must be >= 0")
        self.clock_for = clock_for
        self.switch_latency_s = switch_latency_s
        self.privileged = privileged
        #: Number of actual clock transitions performed.
        self.switch_count = 0

    def _snap_to_supported(self, freq_mhz: float) -> float:
        """Round the requested frequency to the nearest supported step."""
        gpu = self.engine.placement.gpu_of(0)
        return gpu.frequency.nearest_supported(mhz(freq_mhz))

    def _apply_clock(self, function: str) -> None:
        requested = self.clock_for(function)
        if requested is None:
            return  # no opinion: keep the running clock
        target_hz = self._snap_to_supported(requested)
        placement = self.engine.placement
        # Every rank's clock is checked: after a partially applied switch
        # (or a degraded rank) the domains can diverge, and deciding from
        # rank 0 alone would leave the stragglers at the wrong frequency.
        stale = [
            rank
            for rank in range(placement.size)
            if placement.gpu_of(rank).frequency.current_hz != target_hz
        ]
        if not stale:
            return
        # Pay the reprogramming latency with every GPU idle, then switch.
        # The idle runs as its own measured region so the relock energy is
        # attributed to the transition, not the next function's window.
        if self.switch_latency_s > 0:
            idle = [
                RankWork(duration=self.switch_latency_s, cpu_share=0.02)
                for _ in range(placement.size)
            ]
            self.engine.run_phase(
                idle,
                on_start=self.profiler.begin,
                on_end=lambda rank: self.profiler.end(rank, SWITCH_FUNCTION),
            )
        for rank in stale:
            placement.gpu_of(rank).set_frequency(
                target_hz, privileged=self.privileged
            )
        self.switch_count += 1
        if self.profiler.span_recorder is not None:
            self.profiler.span_recorder.instant(
                f"dvfs {target_hz / 1e6:.0f}MHz ({function})",
                self.engine.placement.cluster.clock.now,
            )

    def _run_function(self, function: str, step: int) -> None:
        self._apply_clock(function)
        super()._run_function(function, step)
