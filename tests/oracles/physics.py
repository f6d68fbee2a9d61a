"""The directed-pair physics kernels: Density, IAD, grad-h, MomentumEnergy.

Each kernel runs over a :class:`~tests.oracles.neighbors.PairList` and
scatters its per-pair terms with ``np.bincount``.  The production
:class:`~repro.sph.pair_cache.CsrStepContext` path computes the same
per-pair terms with its operations re-associated (a branchless kernel,
pressures divided once per particle) and sums them per CSR segment, so
the equality tests compare the two chains to <= 1e-12 relative error.
"""

from __future__ import annotations

import numpy as np

from repro.sph.kernels.cubic_spline import CubicSplineKernel
from repro.sph.particles import ParticleSet
from repro.sph.physics.grad_h import kernel_dh
from repro.sph.physics.iad import _invert_tau
from repro.sph.physics.momentum_energy import DEFAULT_AV_ALPHA, balsara_factor
from tests.oracles.neighbors import PairList


def scatter_sum_rows(idx: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Sum ``(k, m)`` rows into ``(n, m)`` at row indices ``idx``: one
    flattened ``bincount`` over ``idx * m + column``."""
    k, m = rows.shape
    flat_idx = (idx[:, None] * m + np.arange(m)).ravel()
    out = np.bincount(flat_idx, weights=rows.ravel(), minlength=n * m)
    return out.reshape(n, m)


def directed_density(ps: ParticleSet, pairs: PairList) -> None:
    """Fill ``ps.rho`` from the pair list."""
    w = CubicSplineKernel.value(pairs.r, ps.h[pairs.i])
    contrib = ps.mass[pairs.j] * w
    rho = np.bincount(pairs.i, weights=contrib, minlength=ps.n).astype(
        np.float64
    )
    # Self-contribution W(0, h_i) = 1 / (pi h^3).
    rho += ps.mass * CubicSplineKernel.value(np.zeros(ps.n), ps.h)
    ps.rho = rho


def directed_omega(ps: ParticleSet, pairs: PairList) -> np.ndarray:
    """The grad-h correction factor per particle (requires ``ps.rho``)."""
    dwdh = kernel_dh(pairs.r, ps.h[pairs.i])
    sums = np.bincount(
        pairs.i, weights=ps.mass[pairs.j] * dwdh, minlength=ps.n
    ).astype(np.float64)
    # Self-contribution: dW/dh at r = 0 is -3 sigma / h^4 * w(0).
    sums += ps.mass * kernel_dh(np.zeros(ps.n), ps.h)
    omega = 1.0 + ps.h / (3.0 * np.maximum(ps.rho, 1e-300)) * sums
    return np.clip(omega, 0.4, 2.5)


def directed_iad_and_divcurl(ps: ParticleSet, pairs: PairList) -> None:
    """Fill ``ps.c_iad``, ``ps.div_v`` and ``ps.curl_v``."""
    d = -pairs.dx  # x_j - x_i
    w = CubicSplineKernel.value(pairs.r, ps.h[pairs.i])
    vol = ps.mass[pairs.j] / ps.rho[pairs.j]
    weight = vol * w

    # Six unique entries of the symmetric tau matrix, accumulated per i.
    tau = np.zeros((ps.n, 3, 3), dtype=np.float64)
    for a in range(3):
        for b in range(a, 3):
            entry = np.bincount(
                pairs.i, weights=weight * d[:, a] * d[:, b], minlength=ps.n
            )
            tau[:, a, b] = entry
            tau[:, b, a] = entry
    ps.c_iad = _invert_tau(tau)

    # Velocity divergence and curl with corrected gradients.
    a_i = np.einsum("kab,kb->ka", ps.c_iad[pairs.i], d) * w[:, None]
    v_ji = ps.vel[pairs.j] - ps.vel[pairs.i]
    m_over_rho_i = ps.mass[pairs.j] / ps.rho[pairs.i]
    div_terms = m_over_rho_i * np.einsum("ka,ka->k", v_ji, a_i)
    ps.div_v = np.bincount(pairs.i, weights=div_terms, minlength=ps.n)
    curl_vec = np.cross(v_ji, a_i) * m_over_rho_i[:, None]
    curl = scatter_sum_rows(pairs.i, curl_vec, ps.n)
    ps.curl_v = np.linalg.norm(curl, axis=1)


def _iad_vectors(
    ps: ParticleSet, pairs: PairList
) -> tuple[np.ndarray, np.ndarray]:
    """The corrected gradient vectors ``A_i,ij`` and ``A_j,ij`` per pair.

    ``A_i`` uses particle i's matrix and smoothing length; ``A_j`` uses
    particle j's (both along ``x_j - x_i``).  Requires ``ps.c_iad``.
    """
    d = -pairs.dx  # x_j - x_i
    w_hi = CubicSplineKernel.value(pairs.r, ps.h[pairs.i])
    w_hj = CubicSplineKernel.value(pairs.r, ps.h[pairs.j])
    a_i = np.einsum("kab,kb->ka", ps.c_iad[pairs.i], d) * w_hi[:, None]
    a_j = np.einsum("kab,kb->ka", ps.c_iad[pairs.j], d) * w_hj[:, None]
    return a_i, a_j


def _pair_viscosity(
    ps: ParticleSet,
    i: np.ndarray,
    j: np.ndarray,
    v_ij: np.ndarray,
    dx: np.ndarray,
    r: np.ndarray,
    av_alpha: float,
    use_balsara: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair AV strength ``Pi_ij`` and signal velocity ``v_sig``.

    Both are symmetric under i <-> j (``w = v_ij . dx / r`` flips both
    factors), so mirrored directed pairs get identical values.
    """
    r_safe = np.maximum(r, 1e-300)
    w_pair = np.einsum("ka,ka->k", v_ij, dx) / r_safe
    v_sig = ps.c[i] + ps.c[j] - 3.0 * w_pair
    rho_bar = 0.5 * (ps.rho[i] + ps.rho[j])
    if use_balsara:
        bal = balsara_factor(ps)
        xi = 0.5 * (bal[i] + bal[j])
    else:
        xi = np.ones(len(i))
    visc = np.where(
        w_pair < 0.0,
        -0.5 * av_alpha * xi * v_sig * w_pair / rho_bar,
        0.0,
    )
    return visc, v_sig


def directed_momentum_energy(
    ps: ParticleSet,
    pairs: PairList,
    av_alpha: float = DEFAULT_AV_ALPHA,
    use_balsara: bool = True,
    omega=None,
) -> None:
    """Fill ``ps.acc``, ``ps.du`` and ``ps.v_sig_max``."""
    a_i, a_j = _iad_vectors(ps, pairs)
    a_bar = 0.5 * (a_i + a_j)

    i, j = pairs.i, pairs.j
    if omega is None:
        pr_i = ps.p[i] / ps.rho[i] ** 2
        pr_j = ps.p[j] / ps.rho[j] ** 2
    else:
        pr_i = ps.p[i] / (omega[i] * ps.rho[i] ** 2)
        pr_j = ps.p[j] / (omega[j] * ps.rho[j] ** 2)

    v_ij = ps.vel[i] - ps.vel[j]
    visc, v_sig = _pair_viscosity(
        ps, i, j, v_ij, pairs.dx, pairs.r, av_alpha, use_balsara
    )

    # Accelerations.
    m_j = ps.mass[j]
    pair_acc = -(m_j[:, None]) * (
        pr_i[:, None] * a_i + pr_j[:, None] * a_j + visc[:, None] * a_bar
    )
    ps.acc = scatter_sum_rows(i, pair_acc, ps.n)

    # Internal energy rate.
    grad_dot_i = np.einsum("ka,ka->k", v_ij, a_i)
    grad_dot_bar = np.einsum("ka,ka->k", v_ij, a_bar)
    du_terms = m_j * (pr_i * grad_dot_i + 0.5 * visc * grad_dot_bar)
    ps.du = np.bincount(i, weights=du_terms, minlength=ps.n)

    # Maximum signal velocity per particle, for the CFL condition.
    v_sig_max = np.full(ps.n, 0.0)
    np.maximum.at(v_sig_max, i, v_sig)
    ps.v_sig_max = np.maximum(v_sig_max, ps.c)
