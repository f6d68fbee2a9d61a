"""Cornerstone-style space-filling-curve octree (Keller et al. 2023).

SPH-EXA's domain layer is built on "cornerstone" octrees: a flat, sorted
array of Morton (SFC) keys whose consecutive entries delimit the leaf
nodes.  This subpackage provides the same structure in vectorized NumPy —
Morton encoding, bucketed leaf refinement, SFC domain partitioning and
halo discovery — and is shared by the SPH domain sync and the Barnes-Hut
gravity solver.
"""

from repro.sph.cornerstone.morton import (
    MAX_COORD,
    encode_morton,
    normalize_positions,
    sfc_keys,
)
from repro.sph.cornerstone.octree import (
    KEY_RANGE,
    build_cornerstone,
    leaf_counts,
)
from repro.sph.cornerstone.domain import DomainDecomposition, partition_leaves

__all__ = [
    "MAX_COORD",
    "encode_morton",
    "normalize_positions",
    "sfc_keys",
    "KEY_RANGE",
    "build_cornerstone",
    "leaf_counts",
    "DomainDecomposition",
    "partition_leaves",
]
