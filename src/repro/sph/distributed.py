"""Distributed (multi-rank) execution of the real solver.

SPMD-emulated in-process: each rank owns a contiguous SFC segment of the
particle set (from :class:`~repro.sph.cornerstone.domain.DomainDecomposition`)
and computes the hydro loop on its *local* set — owned particles plus the
halo particles within kernel support of its domain.  Between functions
that consume freshly computed neighbour fields (density before IAD, IAD
matrices before MomentumEnergy), halo copies are refreshed from their
owners — the halo exchanges a real MPI run performs.

Each rank builds one flat CSR neighbor list per step (local membership
changes with the decomposition, so the serial path's cross-step Verlet
cache does not apply) and restricts it to the owned-row prefix: owned
particles come first in the local index space, so the restriction is a
zero-copy slice of the CSR arrays.  One
:class:`~repro.sph.pair_cache.CsrStepContext` per rank then shares
kernel values and IAD gradient vectors across every loop function of
the step, with per-rank scratch pools persisting across steps.

This is the executable proof that the cornerstone decomposition and halo
discovery are *correct*: the distributed step must reproduce the serial
step to floating-point reordering tolerance, for any rank count — one of
the library's key integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.sph.box import Box
from repro.sph.cornerstone.domain import DomainDecomposition
from repro.sph.hooks import ProfilingHooks
from repro.sph.neighbors import BufferPool, CsrNeighborList, csr_neighbors
from repro.sph.pair_cache import CsrStepContext
from repro.sph.particles import ParticleSet
from repro.sph.physics import (
    compute_density,
    compute_iad_and_divcurl,
    compute_momentum_energy,
    compute_timestep,
    energy_conservation,
    ideal_gas_eos,
    update_quantities,
    update_smoothing_length,
)
from repro.sph.physics.eos import DEFAULT_GAMMA
from repro.sph.propagator import StepStats

#: Fields shipped in a halo refresh, with their per-particle byte cost.
_HALO_FIELD_BYTES = {
    "pos": 24,
    "vel": 24,
    "mass": 8,
    "h": 8,
    "rho": 8,
    "u": 8,
    "p": 8,
    "c": 8,
    "div_v": 8,
    "curl_v": 8,
    "c_iad": 72,
}


@dataclass
class CommStats:
    """Communication bookkeeping of one distributed step."""

    halo_particles: list[int] = field(default_factory=list)
    halo_exchanges: int = 0
    halo_bytes: float = 0.0
    allreduce_count: int = 0

    def record_exchange(self, halo_counts: list[int], fields: tuple[str, ...]) -> None:
        per_particle = sum(_HALO_FIELD_BYTES[f] for f in fields)
        self.halo_exchanges += 1
        self.halo_bytes += per_particle * sum(halo_counts)


class DistributedHydro:
    """Rank-decomposed hydro stepping over a shared global particle set."""

    _LOCAL_FIELDS = (
        "pos", "vel", "mass", "h", "rho", "u", "p", "c", "div_v", "curl_v",
    )

    def __init__(
        self,
        box: Box,
        n_ranks: int,
        gamma: float = DEFAULT_GAMMA,
        av_alpha: float = 1.0,
        n_target: int = 100,
        courant: float = 0.2,
        bucket_size: int = 32,
    ) -> None:
        if n_ranks <= 0:
            raise SimulationError("need at least one rank")
        self.box = box
        self.n_ranks = n_ranks
        self.domain = DomainDecomposition(box, n_ranks, bucket_size)
        self.gamma = gamma
        self.av_alpha = av_alpha
        self.n_target = n_target
        self.courant = courant
        self._step = 0
        self._dt_prev: float | None = None
        # Per-rank persistent scratch pools: neighbor-build buffers and
        # kernel-engine buffers.  The CSR views a rank hands its step
        # context alias its build pool, so pools must not be shared
        # across ranks (rank B's build would clobber rank A's live
        # views while the step interleaves the rank loops per region).
        self._build_pools = [BufferPool() for _ in range(n_ranks)]
        self._kernel_pools = [BufferPool() for _ in range(n_ranks)]
        #: Per-step communication statistics (appended each step).
        self.comm_history: list[CommStats] = []

    # -- local-view plumbing -----------------------------------------------------

    def _make_local(self, ps: ParticleSet, local_idx: np.ndarray) -> ParticleSet:
        """A rank-local copy of the global fields (the initial exchange)."""
        lps = ParticleSet(len(local_idx))
        for name in self._LOCAL_FIELDS:
            setattr(lps, name, getattr(ps, name)[local_idx].copy())
        lps.c_iad = ps.c_iad[local_idx].copy()
        return lps

    def _refresh(
        self,
        ps: ParticleSet,
        lps: ParticleSet,
        local_idx: np.ndarray,
        fields: tuple[str, ...],
    ) -> None:
        """Re-copy freshly computed fields into a rank's local view.

        The owned prefix re-reads the values this rank just scattered
        back (a no-op in value terms); the halo tail picks up what the
        owning ranks computed — the halo exchange of a real MPI step.
        """
        for name in fields:
            setattr(lps, name, getattr(ps, name)[local_idx].copy())

    def _scatter(
        self,
        ps: ParticleSet,
        lps: ParticleSet,
        owned_global: np.ndarray,
        n_owned: int,
        fields: tuple[str, ...],
    ) -> None:
        """Write a rank's owned results back to the global arrays."""
        for name in fields:
            getattr(ps, name)[owned_global] = getattr(lps, name)[:n_owned]

    def _restrict_csr(
        self, csr: CsrNeighborList, n_owned: int
    ) -> CsrNeighborList:
        """Keep only the segments whose gather target is an owned particle.

        Owned particles are the prefix of the local index space and the
        exact CSR build groups segments in particle order, so the
        restriction is a prefix slice — no copies.  Owned rows then
        accumulate *complete* sums (every pair touching an owned
        particle is present in its segment); only the owned prefix is
        ever scattered back, so halo rows are never observed.
        """
        offsets = csr.offsets[: n_owned + 1]
        end = int(offsets[-1])
        return CsrNeighborList(
            offsets=offsets,
            indices=csr.indices[:end],
            row=csr.row[:end],
            dx=csr.dx[:end],
            r=csr.r[:end],
            n_particles=csr.n_particles,
        )

    # -- the step -------------------------------------------------------------------

    def step(
        self, ps: ParticleSet, hooks: ProfilingHooks | None = None
    ) -> StepStats:
        """Advance the global particle set by one distributed step."""
        hooks = hooks if hooks is not None else ProfilingHooks()
        comm = CommStats()

        with hooks.region("DomainDecompAndSync"):
            sync = self.domain.sync(ps)
            owned_ranges = sync.rank_ranges
            halos = [
                self.domain.halo_indices(ps, rank) for rank in range(self.n_ranks)
            ]
            comm.halo_particles = [len(h) for h in halos]
            local_idx = [
                np.concatenate(
                    [np.arange(start, end, dtype=np.int64), halos[rank]]
                )
                for rank, (start, end) in enumerate(owned_ranges)
            ]
            owned_global = [
                np.arange(start, end, dtype=np.int64)
                for start, end in owned_ranges
            ]
            n_owned = [end - start for start, end in owned_ranges]
            comm.record_exchange(
                comm.halo_particles, ("pos", "vel", "mass", "h", "u")
            )

        with hooks.region("FindNeighbors"):
            # Each rank builds its local set once per step; subsequent
            # regions refresh only the fields the preceding function
            # computed.  The CSR list restricted to owned rows feeds one
            # step context per rank (kernel values, IAD vectors shared
            # across all loop functions).
            locals_: list[ParticleSet] = []
            rank_ctxs: list[CsrStepContext] = []
            n_owned_entries = 0
            for rank in range(self.n_ranks):
                lps = self._make_local(ps, local_idx[rank])
                csr = self._restrict_csr(
                    csr_neighbors(
                        lps.pos, lps.h, self.box,
                        pool=self._build_pools[rank],
                    ),
                    n_owned[rank],
                )
                locals_.append(lps)
                rank_ctxs.append(
                    CsrStepContext(csr, lps.h, pool=self._kernel_pools[rank])
                )
                n_owned_entries += csr.n_pairs
                # Every directed entry of an owned row is present, so
                # the segment lengths are the exact neighbour counts.
                ps.nc[owned_global[rank]] = np.diff(csr.offsets)

        with hooks.region("Density"):
            for rank in range(self.n_ranks):
                lps = locals_[rank]
                compute_density(lps, rank_ctxs[rank])
                self._scatter(
                    ps, lps, owned_global[rank], n_owned[rank], ("rho",)
                )
            comm.record_exchange(comm.halo_particles, ("rho",))

        with hooks.region("EquationOfState"):
            for rank in range(self.n_ranks):
                lps = locals_[rank]
                self._refresh(ps, lps, local_idx[rank], ("rho",))
                ideal_gas_eos(lps, self.gamma)
                self._scatter(
                    ps, lps, owned_global[rank], n_owned[rank], ("p", "c")
                )
            comm.record_exchange(comm.halo_particles, ("p", "c"))

        with hooks.region("IADVelocityDivCurl"):
            for rank in range(self.n_ranks):
                lps = locals_[rank]
                self._refresh(ps, lps, local_idx[rank], ("p", "c"))
                compute_iad_and_divcurl(lps, rank_ctxs[rank])
                self._scatter(
                    ps, lps, owned_global[rank], n_owned[rank],
                    ("div_v", "curl_v"),
                )
                ps.c_iad[owned_global[rank]] = lps.c_iad[: n_owned[rank]]
            comm.record_exchange(
                comm.halo_particles, ("c_iad", "div_v", "curl_v")
            )

        with hooks.region("MomentumEnergy"):
            v_sig = np.zeros(ps.n)
            for rank in range(self.n_ranks):
                lps = locals_[rank]
                self._refresh(
                    ps, lps, local_idx[rank], ("div_v", "curl_v")
                )
                # Fresh halo matrices; the new array identity also makes
                # the context re-derive its IAD vectors from them.
                lps.c_iad = ps.c_iad[local_idx[rank]].copy()
                compute_momentum_energy(
                    lps, rank_ctxs[rank], av_alpha=self.av_alpha
                )
                ps.acc[owned_global[rank]] = lps.acc[: n_owned[rank]]
                ps.du[owned_global[rank]] = lps.du[: n_owned[rank]]
                v_sig[owned_global[rank]] = lps.v_sig_max[: n_owned[rank]]
            ps.v_sig_max = v_sig

        with hooks.region("Timestep"):
            # Per-rank local minimum, then the global allreduce(min).
            local_dts = []
            for rank in range(self.n_ranks):
                sub = ParticleSet(max(n_owned[rank], 1))
                idx = owned_global[rank]
                if len(idx):
                    sub.h = ps.h[idx]
                    sub.acc = ps.acc[idx]
                    sub.v_sig_max = ps.v_sig_max[idx]
                    local_dts.append(
                        compute_timestep(sub, self._dt_prev, courant=self.courant)
                    )
            dt = min(local_dts)
            comm.allreduce_count += 1

        with hooks.region("UpdateQuantities"):
            update_quantities(ps, dt, self.box)

        with hooks.region("UpdateSmoothingLength"):
            h_max = 0.99 * self.box.length / 4.0 if self.box.periodic else None
            update_smoothing_length(ps, self.n_target, h_max=h_max)

        with hooks.region("EnergyConservation"):
            totals = energy_conservation(ps)
            comm.allreduce_count += 1

        self.comm_history.append(comm)
        self._dt_prev = dt
        self._step += 1
        # Each undirected pair contributes one directed entry to each
        # endpoint's (uniquely owned) row: the sum of owned-row entries
        # is exactly twice the global undirected pair count.
        return StepStats(
            step=self._step,
            dt=dt,
            n_pairs=n_owned_entries // 2,
            mean_neighbors=float(np.mean(ps.nc)),
            totals=totals,
        )
