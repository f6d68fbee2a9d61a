"""Directed pair lists, both ``(i, j)`` and ``(j, i)``: from an O(N^2)
brute force, or converted from a CSR list to compare it pair for pair."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.sph.box import Box
from repro.sph.kernels.cubic_spline import SUPPORT_RADIUS
from repro.sph.neighbors import CsrNeighborList


@dataclass(frozen=True)
class PairList:
    """Directed interacting pairs and their geometry.

    ``dx[k] = pos[i[k]] - pos[j[k]]`` (minimum image), ``r[k] = |dx[k]|``.
    """

    i: np.ndarray
    j: np.ndarray
    dx: np.ndarray
    r: np.ndarray
    n_particles: int

    @property
    def n_pairs(self) -> int:
        """Number of directed pairs."""
        return len(self.i)

    def neighbor_counts(self) -> np.ndarray:
        """Per-particle neighbor counts."""
        return np.bincount(self.i, minlength=self.n_particles)


def to_directed(csr: CsrNeighborList) -> PairList:
    """The equivalent directed :class:`PairList` of a CSR neighbor list."""
    return PairList(
        i=csr.row.astype(np.int64),
        j=csr.indices.astype(np.int64),
        dx=csr.dx,
        r=csr.r,
        n_particles=csr.n_particles,
    )


def brute_force_pairs(pos: np.ndarray, h: np.ndarray, box: Box) -> PairList:
    """All-pairs O(N^2) neighbor search (small N only).

    Enumerates only the strict upper triangle (``np.triu_indices``) and
    mirrors the surviving pairs: the upper-triangle pairs come first,
    then their mirrors ``(j, i)`` with displacement ``-dx``.
    """
    n = len(pos)
    if n != len(h):
        raise SimulationError("pos and h length mismatch")
    i, j = np.triu_indices(n, k=1)
    dx = box.displacement(pos[i] - pos[j])
    r2 = np.einsum("ij,ij->i", dx, dx)
    keep = r2 < (SUPPORT_RADIUS * np.maximum(h[i], h[j])) ** 2
    i, j, dx, r = i[keep], j[keep], dx[keep], np.sqrt(r2[keep])
    return PairList(
        i=np.concatenate([i, j]),
        j=np.concatenate([j, i]),
        dx=np.concatenate([dx, -dx]),
        r=np.concatenate([r, r]),
        n_particles=n,
    )
