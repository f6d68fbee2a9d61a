"""Morton decoding and the cornerstone-octree invariants."""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sph.cornerstone.octree import KEY_RANGE


def _compact1by2(x: np.ndarray) -> np.ndarray:
    """Gather every third bit into the low 21 bits (inverse of the spread)."""
    x = x.astype(np.uint64) & np.uint64(0x1249249249249249)
    x = (x | (x >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
    x = (x | (x >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
    x = (x | (x >> np.uint64(32))) & np.uint64(0x1FFFFF)
    return x


def decode_morton(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover the integer coordinates from Morton keys."""
    keys = np.asarray(keys, dtype=np.uint64)
    ix = _compact1by2(keys >> np.uint64(2))
    iy = _compact1by2(keys >> np.uint64(1))
    iz = _compact1by2(keys)
    return ix.astype(np.int64), iy.astype(np.int64), iz.astype(np.int64)


def node_aligned(start: int, size: int) -> bool:
    """Whether ``[start, start + size)`` is a valid octree node range."""
    if size <= 0:
        return False
    # size must be a power of 8: power of two with exponent divisible by 3.
    exponent = size.bit_length() - 1
    if (1 << exponent) != size or exponent % 3:
        return False
    return start % size == 0


def validate_cornerstone(leaves: np.ndarray) -> None:
    """Raise if ``leaves`` violates the cornerstone invariants."""
    leaves = np.asarray(leaves, dtype=np.uint64)
    if len(leaves) < 2:
        raise SimulationError("cornerstone array needs at least one leaf")
    if leaves[0] != 0 or leaves[-1] != KEY_RANGE:
        raise SimulationError("cornerstone array must cover the full key range")
    if np.any(leaves[1:] <= leaves[:-1]):
        raise SimulationError("cornerstone keys must be strictly increasing")
    for start, end in zip(leaves[:-1].tolist(), leaves[1:].tolist()):
        if not node_aligned(start, end - start):
            raise SimulationError(
                f"leaf [{start}, {end}) is not a valid octree node"
            )
