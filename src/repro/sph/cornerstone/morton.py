"""Vectorized 3D Morton (Z-order) codes, 21 bits per dimension.

The 63-bit keys interleave the x, y, z integer coordinates (x in the most
significant positions), giving the space-filling curve cornerstone octrees
are built on: any octree node corresponds to a contiguous key range.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sph.box import Box

#: Bits per dimension and the exclusive max integer coordinate.
BITS_PER_DIM = 21
MAX_COORD = 1 << BITS_PER_DIM  # 2_097_152


def _part1by2(x: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of each value to every third bit."""
    x = x.astype(np.uint64) & np.uint64(0x1FFFFF)
    x = (x | (x << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x << np.uint64(2))) & np.uint64(0x1249249249249249)
    return x


def encode_morton(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray) -> np.ndarray:
    """Interleave integer coordinates into 63-bit Morton keys."""
    for name, arr in (("ix", ix), ("iy", iy), ("iz", iz)):
        arr = np.asarray(arr)
        if np.any(arr < 0) or np.any(arr >= MAX_COORD):
            raise SimulationError(
                f"{name} coordinates outside [0, {MAX_COORD})"
            )
    return (
        (_part1by2(np.asarray(ix)) << np.uint64(2))
        | (_part1by2(np.asarray(iy)) << np.uint64(1))
        | _part1by2(np.asarray(iz))
    )


def normalize_positions(pos: np.ndarray, box: Box) -> np.ndarray:
    """Map positions in ``box`` to integer grid coordinates [0, 2^21)."""
    scaled = (pos - box.lo) / box.length * MAX_COORD
    coords = np.floor(scaled).astype(np.int64)
    np.clip(coords, 0, MAX_COORD - 1, out=coords)
    return coords


def sfc_keys(pos: np.ndarray, box: Box) -> np.ndarray:
    """Morton keys of positions (the SFC order SPH-EXA sorts by)."""
    coords = normalize_positions(pos, box)
    return encode_morton(coords[:, 0], coords[:, 1], coords[:, 2])
