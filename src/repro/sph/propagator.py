"""The time-stepping loop (SPH-EXA's propagator).

One :meth:`Propagator.step` runs the full function sequence of Figures 3
and 5, each call wrapped in a profiling hook region::

    DomainDecompAndSync -> FindNeighbors -> Density -> EquationOfState
    -> IADVelocityDivCurl -> MomentumEnergy [-> Gravity | TurbulenceDriving]
    -> Timestep -> UpdateQuantities -> UpdateSmoothingLength
    -> EnergyConservation

The hydro propagator (turbulence) includes driving; the gravity propagator
(Evrard) includes Barnes-Hut self-gravity.

The step pipeline runs over the pair cache layer
(:mod:`repro.sph.pair_cache`): ``FindNeighbors`` queries a Verlet skin
list (rebuilt only when particle drift or smoothing-length growth demands
it, so its cost amortizes across steps) and hands the physics kernels a
per-step context in which kernel values and IAD gradient vectors are each
evaluated once and shared by every consumer.  There is one step engine,
the flat CSR/SoA pipeline (:class:`~repro.sph.pair_cache.CsrVerletList`
+ :class:`~repro.sph.pair_cache.CsrStepContext`), whose kernel buffers
persist across steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sph.box import Box
from repro.sph.cornerstone.domain import DomainDecomposition
from repro.sph.driving import TurbulenceDriver
from repro.sph.gravity import BarnesHutGravity
from repro.sph.hooks import ProfilingHooks
from repro.sph.neighbors import BufferPool
from repro.sph.pair_cache import DEFAULT_SKIN_FACTOR, CsrStepContext, CsrVerletList
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
from repro.sph.physics.conservation import ConservationTotals
from repro.sph.physics.eos import DEFAULT_GAMMA

#: Canonical function inventory (paper Figures 3 and 5).
HYDRO_FUNCTIONS = (
    "DomainDecompAndSync",
    "FindNeighbors",
    "Density",
    "EquationOfState",
    "IADVelocityDivCurl",
    "MomentumEnergy",
    "Timestep",
    "UpdateQuantities",
    "UpdateSmoothingLength",
    "EnergyConservation",
)

TURBULENCE_FUNCTIONS = (
    HYDRO_FUNCTIONS[:6] + ("TurbulenceDriving",) + HYDRO_FUNCTIONS[6:]
)
GRAVITY_FUNCTIONS = HYDRO_FUNCTIONS[:6] + ("Gravity",) + HYDRO_FUNCTIONS[6:]


@dataclass(frozen=True)
class StepStats:
    """Diagnostics of one completed step."""

    step: int
    dt: float
    n_pairs: int
    mean_neighbors: float
    totals: ConservationTotals
    #: Whether this step rebuilt the Verlet candidate list (always True
    #: for drivers without a skin cache, e.g. the distributed path).
    neighbors_rebuilt: bool = True


class Propagator:
    """Time integrator over a particle set.

    Parameters
    ----------
    box:
        Simulation box.
    n_ranks:
        Rank count for the domain decomposition (1 for serial runs).
    driver:
        Optional turbulence driver (Subsonic Turbulence case).
    gravity:
        Whether to include Barnes-Hut self-gravity (Evrard case).
    skin_factor:
        Verlet skin width as a fraction of the mean kernel support; 0
        rebuilds the neighbor list every step (the pre-cache behaviour).
    """

    #: The step engine (CSR/SoA, the only one), recorded by run reports.
    engine = "csr"
    #: The kernel implementation (NumPy, the only one) and the compiled
    #: library handle (none), both recorded by run reports.
    accel = "numpy"
    _cfast = None

    def __init__(
        self,
        box: Box,
        n_ranks: int = 1,
        gamma: float = DEFAULT_GAMMA,
        av_alpha: float = 1.0,
        n_target: int = 100,
        courant: float = 0.2,
        driver: TurbulenceDriver | None = None,
        gravity: bool = False,
        gravity_theta: float = 0.6,
        gravity_eps: float = 0.02,
        use_grad_h: bool = False,
        skin_factor: float = DEFAULT_SKIN_FACTOR,
    ) -> None:
        self.box = box
        self.domain = DomainDecomposition(box, n_ranks)
        self.gamma = gamma
        self.av_alpha = av_alpha
        self.n_target = n_target
        self.courant = courant
        self.driver = driver
        self.gravity = gravity
        self.gravity_theta = gravity_theta
        self.gravity_eps = gravity_eps
        self.use_grad_h = use_grad_h
        self.neighbor_list = CsrVerletList(box, skin_factor)
        # Kernel-engine and gravity-leaf buffers persist across steps:
        # each step's context and tree reuse them instead of reallocating.
        self._kernel_pool = BufferPool()
        self._gravity_pool = BufferPool()
        self._step = 0
        self._dt_prev: float | None = None

    @property
    def function_sequence(self) -> tuple[str, ...]:
        """The loop functions this propagator runs, in order."""
        if self.driver is not None:
            return TURBULENCE_FUNCTIONS
        if self.gravity:
            return GRAVITY_FUNCTIONS
        return HYDRO_FUNCTIONS

    def step(self, ps: ParticleSet, hooks: ProfilingHooks) -> StepStats:
        """Advance the particle set by one time step."""
        with hooks.region("DomainDecompAndSync"):
            sync = self.domain.sync(ps)

        with hooks.region("FindNeighbors"):
            builds_before = self.neighbor_list.n_builds
            if sync.order is not None:
                self.neighbor_list.reorder(sync.order)
            pairs = self.neighbor_list.query(ps.pos, ps.h)
            ctx = CsrStepContext(pairs, ps.h, pool=self._kernel_pool)
            ps.nc = pairs.neighbor_counts()
            rebuilt = self.neighbor_list.n_builds > builds_before

        with hooks.region("Density"):
            compute_density(ps, ctx)

        with hooks.region("EquationOfState"):
            ideal_gas_eos(ps, self.gamma)

        with hooks.region("IADVelocityDivCurl"):
            compute_iad_and_divcurl(ps, ctx)

        with hooks.region("MomentumEnergy"):
            omega = None
            if self.use_grad_h:
                from repro.sph.physics.grad_h import compute_omega

                omega = compute_omega(ps, ctx)
            compute_momentum_energy(
                ps, ctx, av_alpha=self.av_alpha, omega=omega
            )

        potential = 0.0
        if self.gravity:
            with hooks.region("Gravity"):
                tree = BarnesHutGravity(
                    ps.pos,
                    ps.mass,
                    theta=self.gravity_theta,
                    eps=self.gravity_eps,
                    pool=self._gravity_pool,
                )
                ps.acc = ps.acc + tree.acceleration()
                # The diagnostic potential comes from the same single walk
                # as the acceleration: no second traversal and no O(N^2)
                # direct sum, which survives only as the tests' oracle.
                potential = tree.potential()

        if self.driver is not None:
            with hooks.region("TurbulenceDriving"):
                dt_drive = self._dt_prev if self._dt_prev else 1e-3
                self.driver.step(dt_drive)
                ps.acc = ps.acc + self.driver.acceleration(ps.pos)

        with hooks.region("Timestep"):
            dt = compute_timestep(ps, self._dt_prev, courant=self.courant)

        with hooks.region("UpdateQuantities"):
            update_quantities(ps, dt, self.box)

        with hooks.region("UpdateSmoothingLength"):
            # Periodic minimum-image convention requires the kernel support
            # (2h) to stay below half the box; open boxes need no cap.
            h_max = 0.99 * self.box.length / 4.0 if self.box.periodic else None
            update_smoothing_length(ps, self.n_target, h_max=h_max)

        with hooks.region("EnergyConservation"):
            totals = energy_conservation(ps, potential=potential)

        self._dt_prev = dt
        self._step += 1
        return StepStats(
            step=self._step,
            dt=dt,
            # CSR stores directed entries; stats count undirected pairs.
            n_pairs=pairs.n_pairs // 2,
            mean_neighbors=float(np.mean(ps.nc)),
            totals=totals,
            neighbors_rebuilt=rebuilt,
        )
