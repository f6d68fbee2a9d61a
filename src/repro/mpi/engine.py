"""Lockstep SPMD phase executor.

SPH-EXA's time-stepping loop is bulk-synchronous: every rank enters a
function, works for its own duration, then (explicitly or through data
dependencies) aligns with the others before the next function.  The engine
reproduces that structure on the virtual clock:

1. at phase start all ranks' devices take their busy loads;
2. the clock advances through the per-rank completion times in order; as
   each rank completes, its GPU drops to idle, node-shared device loads
   (CPU / DRAM / NIC) are re-aggregated over the still-running ranks, and
   the rank's ``on_end`` callback fires — *this* is the moment the real
   instrumentation reads its sensors, so straggler ranks genuinely burn
   idle-GPU energy that per-rank measurements then attribute correctly;
3. the phase ends when the slowest rank finishes.

The engine guarantees the sensor-layer invariant that all power-trace
appends for a time interval happen before any read of that interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.mpi.mapping import RankPlacement

_SHARES = ("gpu_compute", "gpu_memory", "cpu_share", "mem_share", "nic_share")


@dataclass(frozen=True)
class RankWork:
    """One rank's work during one phase.

    ``gpu_compute`` / ``gpu_memory`` are utilizations of the rank's own GPU
    unit; ``cpu_share`` / ``mem_share`` / ``nic_share`` are this rank's
    contributions to the *node-shared* devices (summed over the node's
    running ranks, clipped to 1).
    """

    duration: float
    gpu_compute: float = 0.0
    gpu_memory: float = 0.0
    cpu_share: float = 0.0
    mem_share: float = 0.0
    nic_share: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.duration < math.inf:
            raise SimulationError(
                f"phase duration {self.duration!r} is not finite and non-negative"
            )
        if not (
            0.0 <= self.gpu_compute <= 1.0
            and 0.0 <= self.gpu_memory <= 1.0
            and 0.0 <= self.cpu_share <= 1.0
            and 0.0 <= self.mem_share <= 1.0
            and 0.0 <= self.nic_share <= 1.0
        ):
            for name in _SHARES:
                v = getattr(self, name)
                if not 0.0 <= v <= 1.0:
                    raise SimulationError(f"{name}={v!r} outside [0, 1]")


@dataclass(frozen=True)
class PhaseResult:
    """Timing of one executed phase."""

    t_start: float
    end_times: np.ndarray
    t_end: float

    def duration_of(self, rank: int) -> float:
        """How long ``rank`` worked in this phase."""
        return float(self.end_times[rank] - self.t_start)


class SpmdEngine:
    """Executes phases across all ranks of a placement (see module doc)."""

    def __init__(self, placement: RankPlacement) -> None:
        self.placement = placement
        self.clock = placement.cluster.clock
        ranks = range(placement.size)
        self._node_of = [placement.location(rank).node_index for rank in ranks]
        self._gpus = [placement.gpu_of(rank) for rank in ranks]

    def _set_node_loads(self, node_index: int) -> None:
        """Apply the aggregated shared loads of one node."""
        node = self.placement.cluster.nodes[node_index]
        cpu, mem, nic = self._node_shares[node_index]
        node.cpu.set_load(min(cpu, 1.0), min(0.5 * cpu, 1.0))
        node.memory.set_load(0.0, min(mem, 1.0))
        node.nic.set_load(0.0, min(nic, 1.0))

    def _init_shared_loads(self) -> None:
        """Aggregate shared-device loads over all ranks at phase start."""
        num_nodes = self.placement.cluster.num_nodes
        self._node_shares = [[0.0, 0.0, 0.0] for _ in range(num_nodes)]
        for node_index, work in zip(self._node_of, self._works):
            shares = self._node_shares[node_index]
            shares[0] += work.cpu_share
            shares[1] += work.mem_share
            shares[2] += work.nic_share
        for node_index in range(num_nodes):
            self._set_node_loads(node_index)

    def _drop_rank_shares(self, rank: int) -> None:
        """Remove a finished rank's contribution from its node's loads."""
        node_index = self._node_of[rank]
        work = self._works[rank]
        shares = self._node_shares[node_index]
        shares[0] = max(shares[0] - work.cpu_share, 0.0)
        shares[1] = max(shares[1] - work.mem_share, 0.0)
        shares[2] = max(shares[2] - work.nic_share, 0.0)
        self._set_node_loads(node_index)

    def run_phase(
        self,
        works: Sequence[RankWork],
        on_start: Callable[[int], None] | None = None,
        on_end: Callable[[int], None] | None = None,
    ) -> PhaseResult:
        """Execute one phase and return its timing.

        ``on_start(rank)`` fires for every rank at phase start (after loads
        are applied); ``on_end(rank)`` fires at that rank's own completion
        time, with the clock positioned exactly there.
        """
        if len(works) != self.placement.size:
            raise SimulationError(
                f"phase needs one RankWork per rank: got {len(works)}, "
                f"communicator size {self.placement.size}"
            )
        self._works = list(works)
        t0 = self.clock.now

        for gpu, work in zip(self._gpus, self._works):
            gpu.set_load(work.gpu_compute, work.gpu_memory)
        self._init_shared_loads()

        if on_start is not None:
            for rank in range(self.placement.size):
                on_start(rank)

        end_times = np.array(
            [t0 + w.duration for w in self._works], dtype=np.float64
        )
        ends = end_times.tolist()
        for rank in np.argsort(end_times, kind="stable").tolist():
            self.clock.advance_to(ends[rank])
            self._gpus[rank].set_idle()
            self._drop_rank_shares(rank)
            if on_end is not None:
                on_end(rank)

        t_end = self.clock.now
        return PhaseResult(t_start=t0, end_times=end_times, t_end=t_end)

    def run_idle(self, duration: float) -> None:
        """Advance time with every device idle (inter-phase gaps, setup)."""
        if duration < 0:
            raise SimulationError("idle duration must be >= 0")
        self.placement.cluster.all_idle()
        self.clock.advance(duration)
