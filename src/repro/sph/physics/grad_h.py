"""Grad-h (Omega) correction terms (Springel & Hernquist 2002).

With adaptive smoothing lengths the kernel sums depend on h, and energy
conservation requires the correction factor ::

    Omega_i = 1 + (h_i / (3 rho_i)) * sum_j m_j dW_ij/dh_i

entering the momentum and energy equations as ``P_i / (Omega_i rho_i^2)``.
For the cubic spline, with W = sigma/h^3 w(q) and q = r/h ::

    dW/dh = -(sigma / h^4) * (3 w(q) + q w'(q))

Omega ~= 1 for uniform particle distributions and deviates near strong
density gradients (shocks, the Evrard center), where the correction
measurably improves energy conservation — covered by the tests.

:func:`compute_omega` sums over the blocks of a
:class:`~repro.sph.pair_cache.CsrStepContext`, evaluating ``dW/dh`` one
block at a time.
"""

from __future__ import annotations

import numpy as np

from repro.sph.kernels.cubic_spline import CubicSplineKernel, _SIGMA_3D
from repro.sph.pair_cache import CsrStepContext
from repro.sph.particles import ParticleSet


def kernel_dh(r: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``dW/dh`` of the cubic spline, vectorized."""
    h = np.asarray(h, dtype=np.float64)
    q = np.asarray(r, dtype=np.float64) / h
    w, dw = CubicSplineKernel.w, CubicSplineKernel.dw
    return -(_SIGMA_3D / h**4) * (3.0 * w(q) + q * dw(q))


def compute_omega(ps: ParticleSet, ctx: CsrStepContext) -> np.ndarray:
    """The grad-h correction factor per particle (requires ``ps.rho``).

    Clamped to [0.4, 2.5]: in pathological neighbour configurations the
    raw estimate can stray far from 1, and production codes clamp it the
    same way to keep the equations well-posed.
    """
    sums = np.zeros(ps.n)
    for b in ctx.blocks:
        terms = b.gather(ps.mass, "col", "gh_m")
        terms *= ctx.kernel_dh(b, b.scratch("gh_dwdh"))
        b.sum_into(sums, terms)
    # Self-contribution: dW/dh at r = 0 is -3 sigma / h^4 * w(0).
    sums += ps.mass * kernel_dh(np.zeros(ps.n), ps.h)
    omega = 1.0 + ps.h / (3.0 * np.maximum(ps.rho, 1e-300)) * sums
    return np.clip(omega, 0.4, 2.5)
