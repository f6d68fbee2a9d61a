"""O(N^2) direct-sum gravity, the reference for the Barnes-Hut tree."""

from __future__ import annotations

import numpy as np

from repro.sph.gravity import G_CODE


def direct_sum_acceleration(
    pos: np.ndarray, mass: np.ndarray, eps: float = 0.0, G: float = G_CODE
) -> np.ndarray:
    """Softened gravitational acceleration of every particle."""
    delta = pos[None, :, :] - pos[:, None, :]  # delta[i, j] = r_j - r_i
    dist2 = np.einsum("ijk,ijk->ij", delta, delta) + eps**2
    np.fill_diagonal(dist2, 1.0)  # avoid divide-by-zero on the diagonal
    inv_d3 = dist2**-1.5
    np.fill_diagonal(inv_d3, 0.0)
    return G * np.einsum("ij,j,ijk->ik", inv_d3, mass, delta)


def direct_sum_potential(
    pos: np.ndarray, mass: np.ndarray, eps: float = 0.0, G: float = G_CODE
) -> float:
    """Total softened gravitational potential energy."""
    delta = pos[None, :, :] - pos[:, None, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta) + eps**2)
    np.fill_diagonal(dist, np.inf)
    return float(-0.5 * G * np.sum(mass[:, None] * mass[None, :] / dist))
