"""Density summation (the ``Density`` loop function).

Gather formulation with each particle's own smoothing length::

    rho_i = m_i W(0, h_i) + sum_j m_j W(|r_ij|, h_i)

The kernel's compact support makes out-of-range pair terms vanish, so the
union pair list can be used unmasked.  Over a
:class:`~repro.sph.pair_cache.CsrStepContext` that is, block by block, one
gather of the neighbour masses, one in-place multiply by the memoized
kernel values and one float64 segment reduction.
"""

from __future__ import annotations

import numpy as np

from repro.sph.kernels.cubic_spline import CubicSplineKernel
from repro.sph.pair_cache import CsrStepContext
from repro.sph.particles import ParticleSet


def compute_density(ps: ParticleSet, ctx: CsrStepContext) -> None:
    """Fill ``ps.rho`` from the step's pairs."""
    w_own = ctx.w_own
    rho = np.zeros(ps.n)
    for b in ctx.blocks:
        contrib = b.gather(ps.mass, "col", "den_m")
        contrib *= w_own[b.lo:b.hi]
        b.sum_into(rho, contrib)
    # Self-contribution W(0, h_i) = 1 / (pi h^3).
    rho += ps.mass * CubicSplineKernel.value(np.zeros(ps.n), ps.h)
    ps.rho = rho
