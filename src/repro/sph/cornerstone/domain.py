"""SFC domain decomposition and halo discovery.

``DomainDecompAndSync`` in SPH-EXA: sort particles along the space-filling
curve, build the cornerstone tree, split the curve into per-rank segments
with balanced particle counts, and determine each rank's *halo* particles —
remote particles within kernel support of the rank's domain, which must be
exchanged every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.sph.box import Box
from repro.sph.cornerstone.morton import sfc_keys
from repro.sph.cornerstone.octree import build_cornerstone, leaf_counts
from repro.sph.kernels.cubic_spline import SUPPORT_RADIUS
from repro.sph.particles import ParticleSet


def partition_leaves(counts: np.ndarray, n_ranks: int) -> np.ndarray:
    """Split leaves into ``n_ranks`` contiguous segments of ~equal count.

    Returns ``n_ranks + 1`` leaf-boundary indices (first 0, last
    ``len(counts)``), monotonically non-decreasing; a rank may end up
    empty only if there are fewer non-empty leaves than ranks.
    """
    if n_ranks <= 0:
        raise SimulationError("need at least one rank")
    total = int(np.sum(counts))
    cum = np.cumsum(counts)
    targets = total * np.arange(1, n_ranks, dtype=np.float64) / n_ranks
    inner = np.searchsorted(cum, targets, side="left") + 1
    bounds = np.concatenate([[0], inner, [len(counts)]]).astype(np.int64)
    np.maximum.accumulate(bounds, out=bounds)
    np.clip(bounds, 0, len(counts), out=bounds)
    return bounds


@dataclass(frozen=True)
class SyncResult:
    """Outcome of one domain synchronisation."""

    #: Per-rank [start, end) particle index ranges (into the sorted set).
    rank_ranges: list[tuple[int, int]]
    #: The SFC sort permutation applied to the particle set
    #: (``new[k] = old[order[k]]``), so per-particle caches — e.g. the
    #: Verlet neighbor list — can follow the relabeling.
    order: np.ndarray | None = None

    def owned_count(self, rank: int) -> int:
        """Number of particles owned by ``rank``."""
        start, end = self.rank_ranges[rank]
        return end - start


class DomainDecomposition:
    """Global-view SFC domain decomposition for the in-process solver."""

    def __init__(self, box: Box, n_ranks: int, bucket_size: int = 64) -> None:
        if n_ranks <= 0:
            raise SimulationError("need at least one rank")
        self.box = box
        self.n_ranks = n_ranks
        self.bucket_size = bucket_size
        self.last_sync: SyncResult | None = None

    def sync(self, ps: ParticleSet) -> SyncResult:
        """Sort ``ps`` along the SFC and (re)compute the rank segments."""
        keys = sfc_keys(ps.pos, self.box)
        order = np.argsort(keys, kind="stable")
        if np.array_equal(order, np.arange(len(order), dtype=order.dtype)):
            # Already SFC-sorted (the common steady state): skip the
            # field reorder and report "no relabeling" so per-particle
            # caches (Verlet label maps) are not invalidated for free.
            order = None
        else:
            ps.reorder(order)
            keys = keys[order]

        leaves = build_cornerstone(keys, self.bucket_size)
        counts = leaf_counts(leaves, keys)
        bounds = partition_leaves(counts, self.n_ranks)
        boundary_keys = leaves[bounds]
        particle_bounds = np.searchsorted(keys, boundary_keys, side="left")

        rank_ranges = [
            (int(particle_bounds[r]), int(particle_bounds[r + 1]))
            for r in range(self.n_ranks)
        ]
        self.last_sync = SyncResult(rank_ranges=rank_ranges, order=order)
        return self.last_sync

    def halo_indices(self, ps: ParticleSet, rank: int) -> np.ndarray:
        """Remote particles within kernel support of ``rank``'s domain.

        Geometric criterion: Euclidean distance to the rank's particle
        AABB below ``2 * max(h)`` (the union pair cutoff), with
        minimum-image distances in periodic boxes.  Conservative (may
        include unneeded particles) but never misses a neighbour.
        """
        if self.last_sync is None:
            raise SimulationError("halo_indices requires a prior sync()")
        start, end = self.last_sync.rank_ranges[rank]
        if end <= start:
            return np.zeros(0, dtype=np.int64)
        own = ps.pos[start:end]
        lo = own.min(axis=0)
        hi = own.max(axis=0)
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        cutoff = SUPPORT_RADIUS * float(np.max(ps.h))

        delta = ps.pos - center
        if self.box.periodic:
            delta = self.box.displacement(delta)
        axis_dist = np.maximum(np.abs(delta) - half, 0.0)
        dist2 = np.einsum("ij,ij->i", axis_dist, axis_dist)
        mask = dist2 < cutoff**2
        mask[start:end] = False
        return np.nonzero(mask)[0]

    def halo_bytes(
        self, ps: ParticleSet, rank: int, bytes_per_particle: int = 88
    ) -> float:
        """Approximate halo-exchange volume for ``rank`` (for comm costing)."""
        return float(len(self.halo_indices(ps, rank)) * bytes_per_particle)
