"""Cornerstone octree construction by bucketed leaf refinement.

A cornerstone tree is a sorted ``uint64`` array ``leaves`` of length
``L + 1``: leaf ``l`` is the SFC key range ``[leaves[l], leaves[l+1])``.
Invariants (Keller et al. 2023):

* ``leaves[0] == 0`` and ``leaves[-1] == 2**63`` (full key range covered);
* every leaf range is a valid octree node — its size is a power of 8 and
  its start is aligned to its size;
* after construction, every leaf holds at most ``bucket_size`` particles
  unless it is a single-key node that cannot split further.

Construction refines from the root: any over-full leaf is replaced by its
8 children, repeatedly, entirely with array operations per sweep (at most
21 sweeps — the key depth).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

#: Exclusive upper bound of the 63-bit SFC key range.
KEY_RANGE = np.uint64(1) << np.uint64(63)


def leaf_counts(leaves: np.ndarray, sorted_codes: np.ndarray) -> np.ndarray:
    """Particles per leaf, given SFC-sorted particle codes."""
    positions = np.searchsorted(sorted_codes, leaves, side="left")
    return np.diff(positions)


def build_cornerstone(sorted_codes: np.ndarray, bucket_size: int) -> np.ndarray:
    """Build the cornerstone leaf array for SFC-sorted particle codes."""
    if bucket_size <= 0:
        raise SimulationError("bucket_size must be positive")
    codes = np.asarray(sorted_codes, dtype=np.uint64)
    if len(codes) > 1 and np.any(codes[1:] < codes[:-1]):
        raise SimulationError("particle codes must be sorted")

    leaves = np.array([0, KEY_RANGE], dtype=np.uint64)
    for _ in range(22):  # key depth bounds the sweeps
        counts = leaf_counts(leaves, codes)
        sizes = np.diff(leaves)
        splittable = (counts > bucket_size) & (sizes >= np.uint64(8))
        if not np.any(splittable):
            break
        starts = leaves[:-1]
        pieces: list[np.ndarray] = []
        # Children of split leaves, generated in bulk: start + k * size/8.
        child_offsets = np.arange(8, dtype=np.uint64)
        split_starts = starts[splittable]
        split_sizes = sizes[splittable] // np.uint64(8)
        children = (
            split_starts[:, None] + child_offsets[None, :] * split_sizes[:, None]
        ).ravel()
        # Merge kept starts and new children, restore sorted order.
        new_starts = np.concatenate([starts[~splittable], children])
        new_starts.sort()
        leaves = np.concatenate([new_starts, [KEY_RANGE]]).astype(np.uint64)
    return leaves
