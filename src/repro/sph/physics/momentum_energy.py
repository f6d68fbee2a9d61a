"""Momentum and energy equations (the ``MomentumEnergy`` loop function).

IAD-corrected pressure gradients with Monaghan signal-velocity artificial
viscosity and the Balsara shear switch::

    dv_i/dt = - sum_j m_j [ P_i/rho_i^2 A_i,ij + P_j/rho_j^2 A_j,ij
                            + Pi_ij Abar_ij ]
    du_i/dt =   P_i/rho_i^2 sum_j m_j (v_i - v_j) . A_i,ij
              + 1/2 sum_j m_j Pi_ij (v_i - v_j) . Abar_ij

with ``Abar = (A_i + A_j)/2`` and, for approaching pairs
(``w = v_ij . rhat < 0``)::

    v_sig = c_i + c_j - 3 w
    Pi_ij = - (alpha/2) xi_ij v_sig w / rhobar_ij        (>= 0)

where ``xi`` is the pairwise-averaged Balsara factor.  Pairwise forces are
exactly antisymmetric (each A flips sign under i<->j), so total momentum
is conserved to round-off — one of the library's property tests.

Over a :class:`~repro.sph.pair_cache.CsrStepContext` every per-particle
sum is a float64 segment reduction, and the IAD gradient vectors computed
by ``IADVelocityDivCurl`` earlier in the step are reused instead of being
re-evaluated.  The per-particle factors (``P/rho^2``, Balsara) are
formed once per call; the per-entry terms are evaluated block by block in
block-sized ``me_*`` scratch.

The per-particle maximum signal velocity is stored for the subsequent
``Timestep`` function, mirroring SPH-EXA's kernel fusion.
"""

from __future__ import annotations

import numpy as np

from repro.sph.pair_cache import CsrStepContext
from repro.sph.particles import ParticleSet

DEFAULT_AV_ALPHA = 1.0

#: Small number guarding the Balsara denominator.
_BALSARA_EPS = 1e-4


def balsara_factor(ps: ParticleSet) -> np.ndarray:
    """Balsara (1995) shear limiter in [0, 1] per particle."""
    abs_div = np.abs(ps.div_v)
    noise = _BALSARA_EPS * ps.c / np.maximum(ps.h, 1e-300)
    return abs_div / (abs_div + ps.curl_v + noise + 1e-300)


def compute_momentum_energy(
    ps: ParticleSet,
    ctx: CsrStepContext,
    av_alpha: float = DEFAULT_AV_ALPHA,
    use_balsara: bool = True,
    omega=None,
) -> None:
    """Fill ``ps.acc``, ``ps.du`` and ``ps.v_sig_max``.

    ``omega`` optionally supplies the grad-h correction factors
    (:func:`repro.sph.physics.grad_h.compute_omega`); pressure terms then
    become ``P / (Omega rho^2)``.  Pairwise antisymmetry — and therefore
    exact momentum conservation — is preserved either way.
    """
    a_own_all, a_oth_all = ctx.iad_vectors(ps.c_iad)

    # Pressure-over-rho^2 per particle, gathered per entry — bitwise the
    # same values as the directed oracle's gather-then-divide (tests/
    # oracles/physics.py), at O(N) divisions.
    if omega is None:
        pr = ps.p / ps.rho**2
    else:
        pr = ps.p / (omega * ps.rho**2)
    bal = balsara_factor(ps) if use_balsara else None
    acc = np.zeros((ps.n, 3))
    du_sum = np.zeros(ps.n)
    v_sig_max = np.zeros(ps.n)
    for b in ctx.blocks:
        a_own = a_own_all[b.lo:b.hi]
        a_oth = a_oth_all[b.lo:b.hi]
        a_bar = b.scratch("me_abar", 3)
        np.add(a_own, a_oth, out=a_bar)
        a_bar *= 0.5
        pr_own = b.gather(pr, "row", "me_pr_own")
        pr_oth = b.gather(pr, "col", "me_pr_oth")

        v_ij = b.gather(ps.vel, "row", "me_vij")
        v_ij -= b.gather(ps.vel, "col", "me_vt")

        # Per-entry AV strength and signal velocity (Monaghan + Balsara).
        w_pair = b.scratch("me_w")
        np.einsum("ka,ka->k", v_ij, b.dx, out=w_pair)
        w_pair /= np.maximum(b.r, 1e-300)
        v_sig = b.gather(ps.c, "row", "me_vsig")
        v_sig += b.gather(ps.c, "col", "me_g")
        v_sig -= 3.0 * w_pair
        rho_bar = b.gather(ps.rho, "row", "me_rho")
        rho_bar += b.gather(ps.rho, "col", "me_g")
        rho_bar *= 0.5
        visc = b.scratch("me_visc")
        np.multiply(v_sig, w_pair, out=visc)
        visc *= -0.5 * av_alpha
        if bal is not None:
            xi = b.gather(bal, "row", "me_xi")
            xi += b.gather(bal, "col", "me_g")
            xi *= 0.5
            visc *= xi
        visc /= rho_bar
        visc[w_pair >= 0.0] = 0.0

        # Force term per entry; the mirrored entry negates every A vector
        # and keeps the scalar weights, so momentum conserves to round-off.
        term = b.scratch("me_term", 3)
        np.multiply(pr_own[:, None], a_own, out=term)
        term += pr_oth[:, None] * a_oth
        term += visc[:, None] * a_bar
        m_j = b.gather(ps.mass, "col", "me_m")
        term *= m_j[:, None]
        np.negative(term, out=term)
        b.sum_into(acc, term)

        # Internal energy rate, the directed oracle's formulation per entry.
        grad_dot_own = b.scratch("me_dot_own")
        np.einsum("ka,ka->k", v_ij, a_own, out=grad_dot_own)
        grad_dot_bar = b.scratch("me_dot_bar")
        np.einsum("ka,ka->k", v_ij, a_bar, out=grad_dot_bar)
        du = grad_dot_own
        du *= pr_own
        grad_dot_bar *= visc
        grad_dot_bar *= 0.5
        du += grad_dot_bar
        du *= m_j
        b.sum_into(du_sum, du)

        # Maximum signal velocity per particle, for the CFL condition.
        b.max_into(v_sig_max, v_sig)
    ps.acc = acc
    ps.du = du_sum
    ps.v_sig_max = np.maximum(v_sig_max, ps.c)
