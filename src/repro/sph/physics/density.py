"""Density summation (the ``Density`` loop function).

Gather formulation with each particle's own smoothing length::

    rho_i = m_i W(0, h_i) + sum_j m_j W(|r_ij|, h_i)

The kernel's compact support makes out-of-range pair terms vanish, so the
union pair list can be used unmasked.

Accepts a :class:`~repro.sph.pair_cache.CsrStepContext` (the production
SoA path: one gather into the scalar slot ``ph_s0``, one in-place
multiply by the memoized kernel values, one float64 segment reduction)
or a directed :class:`~repro.sph.neighbors.PairList` (the reference path
the tests compare against).
"""

from __future__ import annotations

import numpy as np

from repro.sph.kernels.cubic_spline import CubicSplineKernel
from repro.sph.neighbors import PairList
from repro.sph.pair_cache import CsrStepContext
from repro.sph.particles import ParticleSet


def _density_csr(ps: ParticleSet, ctx: CsrStepContext) -> None:
    contrib = ctx.gather(ps.mass, "col", "ph_s0")
    contrib *= ctx.w_own
    rho = ctx.reduce_sum(contrib)
    rho += ps.mass * CubicSplineKernel.value(np.zeros(ps.n), ps.h)
    ps.rho = rho


def compute_density(ps: ParticleSet, pairs: PairList | CsrStepContext) -> None:
    """Fill ``ps.rho`` from the pair list."""
    if isinstance(pairs, CsrStepContext):
        _density_csr(ps, pairs)
        return
    w = CubicSplineKernel.value(pairs.r, ps.h[pairs.i])
    contrib = ps.mass[pairs.j] * w
    rho = np.bincount(pairs.i, weights=contrib, minlength=ps.n).astype(
        np.float64
    )
    # Self-contribution W(0, h_i) = 1 / (pi h^3).
    rho += ps.mass * CubicSplineKernel.value(np.zeros(ps.n), ps.h)
    ps.rho = rho
