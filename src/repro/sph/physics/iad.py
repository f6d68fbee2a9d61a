"""Integral approach to derivatives (the ``IADVelocityDivCurl`` function).

Garcia-Senz et al. (2012), as used by SPH-EXA/SPHYNX: per particle, the
moment matrix ::

    tau_ab,i = sum_j (m_j / rho_j) (x_a,j - x_a,i)(x_b,j - x_b,i) W_ij(h_i)

is inverted to give the IAD correction matrix ``C_i = tau_i^{-1}``; the
corrected kernel-gradient estimate for pair (i, j) is then ::

    A_i,ij = C_i (x_j - x_i) W_ij(h_i)      (plays the role of grad_i W_ij)

This module also computes the velocity divergence and curl with the same
corrected gradients (they feed the Balsara viscosity switch), matching
SPH-EXA's fused ``IADVelocityDivCurl`` kernel.

Over a :class:`~repro.sph.pair_cache.CsrStepContext` every sum is a
float64 segment reduction over the CSR offsets, and the gradient vectors
computed here are memoized for ``MomentumEnergy`` to reuse.  Every
gradient vector needs its row's inverted tau, so the function runs two
block loops: the tau entries first, then, after one inversion over all
particles, the divergence and curl.  The per-entry temporaries are
block-sized ``iad_*`` scratch.
"""

from __future__ import annotations

import numpy as np

from repro.sph.pair_cache import CsrStepContext
from repro.sph.particles import ParticleSet


def _invert_tau(tau: np.ndarray) -> np.ndarray:
    """Regularize near-singular moment matrices, then invert.

    Isolated particles and collinear neighbour sets produce singular
    ``tau``; a small multiple of the trace-scaled identity keeps the
    inversion well-posed.
    """
    trace = np.trace(tau, axis1=1, axis2=2)
    scale = np.maximum(trace / 3.0, 1e-30)
    eye = np.eye(3)[None, :, :]
    det = np.linalg.det(tau)
    bad = np.abs(det) < (1e-10 * scale**3)
    tau[bad] += (1e-6 * scale[bad])[:, None, None] * eye
    return np.linalg.inv(tau)


def _assemble_tau(entries: np.ndarray, n: int) -> np.ndarray:
    """The symmetric ``(n, 3, 3)`` tau matrices from their six entries."""
    tau = np.empty((n, 3, 3), dtype=np.float64)
    tau[:, 0, 0] = entries[:, 0]
    tau[:, 0, 1] = tau[:, 1, 0] = entries[:, 1]
    tau[:, 0, 2] = tau[:, 2, 0] = entries[:, 2]
    tau[:, 1, 1] = entries[:, 3]
    tau[:, 1, 2] = tau[:, 2, 1] = entries[:, 4]
    tau[:, 2, 2] = entries[:, 5]
    return tau


def compute_iad_and_divcurl(ps: ParticleSet, ctx: CsrStepContext) -> None:
    """Fill ``ps.c_iad``, ``ps.div_v`` and ``ps.curl_v``."""
    w_own = ctx.w_own

    # Volume-weighted kernel value per entry, then the six unique tau
    # entries of d = x_col - x_row = -dx in one (entries, 6) array and
    # one float64 segment reduction per block.  (-a)(-b) == ab exactly,
    # so the products of dx are those of d.
    tau = np.zeros((ps.n, 6))
    for b in ctx.blocks:
        d = b.dx
        vol_w = b.gather(ps.mass, "col", "iad_s0")
        vol_w /= b.gather(ps.rho, "col", "iad_g")
        vol_w *= w_own[b.lo:b.hi]
        geom = b.scratch("iad_geom", 6)
        np.multiply(d[:, 0], d[:, 0], out=geom[:, 0])
        np.multiply(d[:, 0], d[:, 1], out=geom[:, 1])
        np.multiply(d[:, 0], d[:, 2], out=geom[:, 2])
        np.multiply(d[:, 1], d[:, 1], out=geom[:, 3])
        np.multiply(d[:, 1], d[:, 2], out=geom[:, 4])
        np.multiply(d[:, 2], d[:, 2], out=geom[:, 5])
        geom *= vol_w[:, None]
        b.sum_into(tau, geom)
    ps.c_iad = _invert_tau(_assemble_tau(tau, ps.n))

    # Velocity divergence and curl with corrected gradients.
    a_own_all, _ = ctx.iad_vectors(ps.c_iad)
    div_v = np.zeros(ps.n)
    curl_v = np.zeros((ps.n, 3))
    for b in ctx.blocks:
        a_own = a_own_all[b.lo:b.hi]
        v_ji = b.gather(ps.vel, "col", "iad_v0")
        v_ji -= b.gather(ps.vel, "row", "iad_vt")
        m_over_rho = b.gather(ps.mass, "col", "iad_s0")
        m_over_rho /= b.gather(ps.rho, "row", "iad_g")
        div_terms = b.scratch("iad_s1")
        np.einsum("ka,ka->k", v_ji, a_own, out=div_terms)
        div_terms *= m_over_rho
        b.sum_into(div_v, div_terms)
        curl = b.scratch("iad_vt", 3)
        np.multiply(v_ji[:, 1], a_own[:, 2], out=curl[:, 0])
        curl[:, 0] -= v_ji[:, 2] * a_own[:, 1]
        np.multiply(v_ji[:, 2], a_own[:, 0], out=curl[:, 1])
        curl[:, 1] -= v_ji[:, 0] * a_own[:, 2]
        np.multiply(v_ji[:, 0], a_own[:, 1], out=curl[:, 2])
        curl[:, 2] -= v_ji[:, 1] * a_own[:, 0]
        curl *= m_over_rho[:, None]
        b.sum_into(curl_v, curl)
    ps.div_v = div_v
    ps.curl_v = np.linalg.norm(curl_v, axis=1)
