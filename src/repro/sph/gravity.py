"""Self-gravity: Barnes-Hut octree and the direct-sum oracle.

The Evrard collapse needs self-gravity.  SPH-EXA computes it with a
multipole traversal over the cornerstone octree; we implement the
Barnes-Hut monopole variant with a group-vectorized traversal: each tree
node is tested against *all* still-unresolved target particles at once
(opening criterion ``2 * half_width / distance < theta``), accepted
targets receive the node's monopole contribution in one vector operation,
and only the rejected subset recurses into children.  Plummer softening
``eps`` regularizes close encounters, as in production SPH codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError

#: Gravitational constant in code units (G = 1 for the Evrard test).
G_CODE = 1.0


def direct_sum_acceleration(
    pos: np.ndarray, mass: np.ndarray, eps: float = 0.0, G: float = G_CODE
) -> np.ndarray:
    """O(N^2) softened gravitational acceleration (test oracle)."""
    n = len(pos)
    delta = pos[None, :, :] - pos[:, None, :]  # delta[i, j] = r_j - r_i
    dist2 = np.einsum("ijk,ijk->ij", delta, delta) + eps**2
    np.fill_diagonal(dist2, 1.0)  # avoid divide-by-zero on the diagonal
    inv_d3 = dist2**-1.5
    np.fill_diagonal(inv_d3, 0.0)
    return G * np.einsum("ij,j,ijk->ik", inv_d3, mass, delta)


def direct_sum_potential(
    pos: np.ndarray, mass: np.ndarray, eps: float = 0.0, G: float = G_CODE
) -> float:
    """Total softened gravitational potential energy (test oracle)."""
    delta = pos[None, :, :] - pos[:, None, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta) + eps**2)
    np.fill_diagonal(dist, np.inf)
    return float(-0.5 * G * np.sum(mass[:, None] * mass[None, :] / dist))


@dataclass
class _BhNode:
    """One Barnes-Hut node (center/half_width define its cube)."""

    center: np.ndarray
    half_width: float
    start: int
    end: int
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
        Particle positions and masses (the tree copies sorted views).
    theta:
        Opening angle; smaller is more accurate (0.5 is the classic value).
    eps:
        Plummer softening length.
    leaf_size:
        Maximum particles per leaf before splitting.
    """

    def __init__(
        self,
        pos: np.ndarray,
        mass: np.ndarray,
        theta: float = 0.5,
        eps: float = 0.0,
        G: float = G_CODE,
        leaf_size: int = 16,
    ) -> None:
        if len(pos) != len(mass):
            raise SimulationError("pos and mass length mismatch")
        if not 0 < theta < 2.0:
            raise SimulationError(f"theta must be in (0, 2), got {theta!r}")
        self.theta = theta
        self.eps = eps
        self.G = G
        self.leaf_size = max(int(leaf_size), 1)

        # Sort particles into tree order once; remember the permutation.
        center = 0.5 * (pos.min(axis=0) + pos.max(axis=0))
        half = 0.5 * float(np.max(pos.max(axis=0) - pos.min(axis=0)))
        half = max(half * 1.0001, 1e-12)
        self._order = np.arange(len(pos))
        self._pos = pos.copy()
        self._mass = mass.copy()
        self.nodes: list[_BhNode] = []
        self._build(np.arange(len(pos)), center, half)

    # -- construction -----------------------------------------------------------

    def _build(self, indices: np.ndarray, center: np.ndarray, half: float) -> int:
        node_id = len(self.nodes)
        node = _BhNode(center=center.copy(), half_width=half, start=0, end=len(indices))
        self.nodes.append(node)
        pts = self._pos[indices]
        m = self._mass[indices]
        node.mass = float(np.sum(m))
        node.com = (
            np.sum(pts * m[:, None], axis=0) / node.mass
            if node.mass > 0
            else center.copy()
        )
        node.start, node.end = 0, len(indices)
        node._indices = indices  # type: ignore[attr-defined]
        if len(indices) > self.leaf_size and half > 1e-9:
            octant = (
                (pts[:, 0] >= center[0]).astype(np.int64) * 4
                + (pts[:, 1] >= center[1]).astype(np.int64) * 2
                + (pts[:, 2] >= center[2]).astype(np.int64)
            )
            for o in range(8):
                sub = indices[octant == o]
                if len(sub) == 0:
                    continue
                offset = np.array(
                    [
                        half / 2 if o & 4 else -half / 2,
                        half / 2 if o & 2 else -half / 2,
                        half / 2 if o & 1 else -half / 2,
                    ]
                )
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
        self-interaction excluded inside leaves via zero-distance masking).
        """
        pts = self._pos if targets is None else np.asarray(targets, dtype=np.float64)
        acc = np.zeros_like(pts)
        self._traverse(0, np.arange(len(pts)), pts, acc)
        return acc

    def _traverse(
        self, node_id: int, active: np.ndarray, pts: np.ndarray, acc: np.ndarray
    ) -> None:
        if len(active) == 0:
            return
        node = self.nodes[node_id]
        delta = node.com[None, :] - pts[active]
        dist2 = np.einsum("ij,ij->i", delta, delta)
        dist = np.sqrt(dist2)
        accepted = (2.0 * node.half_width) < (self.theta * dist)
        if node.is_leaf:
            # Direct sum over the leaf's particles for everyone still here.
            rejected = active
            self._leaf_direct(node, rejected, pts, acc)
            return
        take = active[accepted]
        if len(take):
            d = delta[accepted]
            d2 = dist2[accepted] + self.eps**2
            acc[take] += self.G * node.mass * d / d2[:, None] ** 1.5
        remain = active[~accepted]
        for child in node.children:
            self._traverse(child, remain, pts, acc)

    def potential(self) -> float:
        """Total gravitational potential energy via the tree (monopole).

        Same opening criterion as :meth:`acceleration`, so the Evrard
        diagnostic no longer needs the O(N^2) direct sum in the hot loop
        (:func:`direct_sum_potential` remains the test oracle).  Returns
        ``0.5 * sum_i m_i phi_i`` with Plummer-softened ``phi``.
        """
        phi = np.zeros(len(self._pos))
        self._traverse_potential(0, np.arange(len(self._pos)), phi)
        return float(0.5 * np.sum(self._mass * phi))

    def _traverse_potential(
        self, node_id: int, active: np.ndarray, phi: np.ndarray
    ) -> None:
        if len(active) == 0:
            return
        node = self.nodes[node_id]
        delta = node.com[None, :] - self._pos[active]
        dist2 = np.einsum("ij,ij->i", delta, delta)
        accepted = (2.0 * node.half_width) ** 2 < (self.theta**2 * dist2)
        if node.is_leaf:
            src_idx = node._indices  # type: ignore[attr-defined]
            d = self._pos[src_idx][None, :, :] - self._pos[active][:, None, :]
            d2 = np.einsum("ijk,ijk->ij", d, d)
            self_mask = d2 < 1e-24
            inv_d = (d2 + self.eps**2) ** -0.5
            inv_d[self_mask] = 0.0
            phi[active] += -self.G * inv_d @ self._mass[src_idx]
            return
        take = active[accepted]
        if len(take):
            phi[take] += -self.G * node.mass / np.sqrt(
                dist2[accepted] + self.eps**2
            )
        remain = active[~accepted]
        for child in node.children:
            self._traverse_potential(child, remain, phi)

    def _leaf_direct(
        self, node: _BhNode, active: np.ndarray, pts: np.ndarray, acc: np.ndarray
    ) -> None:
        src_idx = node._indices  # type: ignore[attr-defined]
        src_pos = self._pos[src_idx]
        src_mass = self._mass[src_idx]
        delta = src_pos[None, :, :] - pts[active][:, None, :]
        dist2 = np.einsum("ijk,ijk->ij", delta, delta)
        self_mask = dist2 < 1e-24
        dist2 = dist2 + self.eps**2
        inv_d3 = dist2**-1.5
        inv_d3[self_mask] = 0.0
        acc[active] += self.G * np.einsum("ij,j,ijk->ik", inv_d3, src_mass, delta)
