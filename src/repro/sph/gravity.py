"""Self-gravity: the Barnes-Hut octree.

The Evrard collapse needs self-gravity.  SPH-EXA computes it with a
multipole traversal over the cornerstone octree; we implement the
Barnes-Hut monopole variant as a group walk (Barnes, J. Comput. Phys. 87,
1990): each node is tested against *all* still-unresolved targets at once
(opening criterion ``2 * half_width / distance < theta``), accepted
targets take its monopole in one vector operation, and only the rest
recurse.  One walk yields acceleration and potential together, over x/y/z
rows and C-contiguous (sources x targets) leaf blocks.  Plummer softening
``eps`` regularizes close encounters, as in production SPH codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.sph.neighbors import BufferPool

#: Gravitational constant in code units (G = 1 for the Evrard test).
G_CODE = 1.0


@dataclass
class _BhNode:
    """One Barnes-Hut node (center/half_width define its cube)."""

    center: np.ndarray
    half_width: float
    indices: np.ndarray  # source particles inside the cube
    mass: float = 0.0
    com: np.ndarray = field(default_factory=lambda: np.zeros(3))
    children: list[int] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class BarnesHutGravity:
    """Monopole Barnes-Hut tree over a particle snapshot.

    Parameters
    ----------
    pos, mass:
        Particle positions and masses (the tree keeps copies).
    theta:
        Opening angle; smaller is more accurate (0.5 is the classic value).
    eps:
        Plummer softening length.
    leaf_size:
        Maximum particles per leaf before splitting.
    pool:
        Scratch pool for the leaf blocks; a caller that builds one tree
        per step passes the same pool each time, so the leaf buffers are
        allocated once.  A private pool by default.
    """

    def __init__(
        self,
        pos: np.ndarray,
        mass: np.ndarray,
        theta: float = 0.5,
        eps: float = 0.0,
        G: float = G_CODE,
        leaf_size: int = 16,
        pool: BufferPool | None = None,
    ) -> None:
        if len(pos) != len(mass):
            raise SimulationError("pos and mass length mismatch")
        if not 0 < theta < 2.0:
            raise SimulationError(f"theta must be in (0, 2), got {theta!r}")
        self.theta = theta
        self.eps = eps
        self.G = G
        self.leaf_size = max(int(leaf_size), 1)

        center = 0.5 * (pos.min(axis=0) + pos.max(axis=0))
        half = 0.5 * float(np.max(pos.max(axis=0) - pos.min(axis=0)))
        half = max(half * 1.0001, 1e-12)
        self._pos = pos.copy()
        self._xyz = np.ascontiguousarray(self._pos.T)  # SoA rows x, y, z
        self._mass = mass.copy()
        self._self_sums: tuple[np.ndarray, np.ndarray] | None = None
        self._pool = pool if pool is not None else BufferPool()
        self.nodes: list[_BhNode] = []
        self._build(np.arange(len(pos)), center, half)

    # -- construction -----------------------------------------------------------

    def _build(self, indices: np.ndarray, center: np.ndarray, half: float) -> int:
        node_id = len(self.nodes)
        node = _BhNode(center=center.copy(), half_width=half, indices=indices)
        self.nodes.append(node)
        pts = self._pos[indices]
        m = self._mass[indices]
        node.mass = float(np.sum(m))
        node.com = (
            np.sum(pts * m[:, None], axis=0) / node.mass
            if node.mass > 0
            else center.copy()
        )
        if len(indices) > self.leaf_size and half > 1e-9:
            octant = (pts >= center) @ np.array([4, 2, 1])
            for o in range(8):
                sub = indices[octant == o]
                if len(sub) == 0:
                    continue
                offset = np.where([o & 4, o & 2, o & 1], half / 2, -half / 2)
                child_id = self._build(sub, center + offset, half / 2)
                node.children.append(child_id)
        return node_id

    @property
    def num_nodes(self) -> int:
        """Total nodes in the tree."""
        return len(self.nodes)

    # -- traversal ----------------------------------------------------------------

    def acceleration(self, targets: np.ndarray | None = None) -> np.ndarray:
        """Gravitational acceleration at the target positions.

        ``targets`` defaults to the tree's own particles (with
        self-interaction excluded inside leaves via zero-distance masking);
        that walk also yields :meth:`potential`.
        """
        if targets is None:
            return self._walk_self()[0].copy()
        xyz = np.ascontiguousarray(np.asarray(targets, dtype=np.float64).T)
        acc = np.zeros(xyz.shape)
        self._walk(0, xyz, acc, None)
        return np.ascontiguousarray(acc.T)

    def potential(self) -> float:
        """Total gravitational potential energy via the tree (monopole):
        ``0.5 * sum_i m_i phi_i`` with Plummer-softened ``phi``, read from
        the walk :meth:`acceleration` runs, so the Evrard diagnostic costs
        no second traversal.
        """
        return float(0.5 * np.sum(self._mass * self._walk_self()[1]))

    def _walk_self(self) -> tuple[np.ndarray, np.ndarray]:
        if self._self_sums is None:
            acc, phi = np.zeros(self._xyz.shape), np.zeros(len(self._mass))
            self._walk(0, self._xyz, acc, phi)
            self._self_sums = (np.ascontiguousarray(acc.T), phi)
        return self._self_sums

    def _walk(self, node_id: int, xyz: np.ndarray, acc, phi) -> None:
        """Add node ``node_id``'s pull on the targets ``xyz`` (3, a) to their
        running sums ``acc`` (3, a) and/or ``phi`` (a,); ``None`` skips one.
        Each target takes its terms in depth-first order and in the former
        array-of-structs arithmetic, bit for bit (DESIGN.md, "Gravity walk").
        """
        node = self.nodes[node_id]
        G, eps2 = self.G, self.eps**2
        if node.is_leaf:  # direct sum over the leaf for every target still here
            src, m, pool = node.indices, self._mass[node.indices], self._pool
            s, a = len(src), xyz.shape[1]
            d, sq = pool.get("d", 6 * s * a, np.float64).reshape(2, 3, s, a)
            np.subtract(self._xyz[:, src, None], xyz[:, None, :], out=d)
            np.multiply(d, d, out=sq)
            d2 = np.add(sq[0], sq[2], out=pool.rows("d2", s, a, np.float64))
            d2 += sq[1]  # the einsum's order: (dx*dx + dz*dz) + dy*dy
            self_mask = np.less(d2, 1e-24, out=pool.rows("mask", s, a, np.bool_))
            d2 += eps2
            w = sq[0]
            if acc is not None:
                np.power(d2, -1.5, out=w)
                w[self_mask] = 0.0
                if a == 1:  # a lone target: the AoS einsum has its own order
                    w1, d1 = np.ascontiguousarray(w.T), np.ascontiguousarray(d.T)
                    f = np.einsum("ij,j,ijk->ik", w1, m, d1).T
                else:  # sources summed in sequence, as the AoS einsum did
                    w *= m[:, None]
                    f = np.einsum("ji,kji->ki", w, d)
                acc += G * f
            if phi is not None:
                np.power(d2, -0.5, out=w)
                w[self_mask] = 0.0
                # C-ordered (targets x sources): the former BLAS gemv call.
                phi += np.multiply(w.T, -G, out=pool.rows("wt", a, s, np.float64)) @ m
            return
        d = node.com[:, None] - xyz
        d2 = (d[0] * d[0] + d[2] * d[2]) + d[1] * d[1]
        width = 2.0 * node.half_width
        take = width < self.theta * np.sqrt(d2) if acc is not None else None
        if phi is not None:
            # The potential's own squared test.  Should it disagree at a
            # rounding edge, each sum walks this subtree on its own decisions.
            phi_take = width**2 < self.theta**2 * d2
            if take is None:
                take = phi_take
            elif not np.array_equal(take, phi_take):
                self._walk(node_id, xyz, acc, None)
                self._walk(node_id, xyz, None, phi)
                return
        sub = [xyz, acc, phi]
        if take.any():
            # Rejected targets add +0.0, which is exact: a sum that starts
            # at +0.0 never holds -0.0.
            r2 = d2 + eps2
            if acc is not None:
                acc += np.where(take, G * node.mass * d / r2**1.5, 0.0)
            if phi is not None:
                phi += np.where(take, -G * node.mass / np.sqrt(r2), 0.0)
            rest = np.flatnonzero(~take)
            if len(rest) == 0:
                return
            sub = [None if v is None else np.take(v, rest, axis=-1) for v in sub]
        for child in node.children:
            self._walk(child, *sub)
        for out, part in zip((acc, phi), sub[1:]):  # copy the rejected back
            if part is not None and part is not out:
                out[..., rest] = part
