"""Tests for neighbor search: the CSR cell list cross-validated against the
brute-force oracle of ``tests/oracles/neighbors.py``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sph.box import Box
from repro.sph.neighbors import csr_neighbors
from tests.oracles.neighbors import brute_force_pairs, to_directed


def pair_set(pairs):
    return set(zip(pairs.i.tolist(), pairs.j.tolist()))


def random_particles(n, box, h_value, seed):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(box.lo, box.hi, size=(n, 3))
    h = np.full(n, h_value)
    return pos, h


class TestBox:
    def test_displacement_minimum_image(self):
        box = Box(length=1.0, periodic=True)
        dr = np.array([[0.9, -0.9, 0.2]])
        out = box.displacement(dr)
        assert np.allclose(out, [[-0.1, 0.1, 0.2]])

    def test_open_box_passthrough(self):
        box = Box(length=1.0, periodic=False)
        dr = np.array([[0.9, -0.9, 0.2]])
        assert np.allclose(box.displacement(dr), dr)

    def test_wrap(self):
        box = Box(length=2.0, periodic=True)
        pos = np.array([[1.5, -1.5, 0.0]])
        wrapped = box.wrap(pos)
        assert np.allclose(wrapped, [[-0.5, 0.5, 0.0]])
        assert np.all(box.contains(wrapped))

    def test_invalid_length(self):
        with pytest.raises(SimulationError):
            Box(length=0.0)


class TestNeighborSearch:
    def test_simple_pair(self):
        box = Box(length=10.0, periodic=False)
        pos = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [5.0, 0.0, 0.0]])
        h = np.full(3, 0.5)
        pairs = brute_force_pairs(pos, h, box)
        assert pair_set(pairs) == {(0, 1), (1, 0)}

    def test_periodic_pair_across_boundary(self):
        box = Box(length=1.0, periodic=True)
        pos = np.array([[-0.49, 0.0, 0.0], [0.49, 0.0, 0.0]])
        h = np.full(2, 0.1)
        pairs = brute_force_pairs(pos, h, box)
        assert pair_set(pairs) == {(0, 1), (1, 0)}
        assert pairs.r[0] == pytest.approx(0.02)

    def test_union_cutoff_uses_larger_h(self):
        box = Box(length=10.0, periodic=False)
        pos = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
        h = np.array([0.25, 1.0])  # only 2*h_j reaches
        pairs = brute_force_pairs(pos, h, box)
        assert pair_set(pairs) == {(0, 1), (1, 0)}

    def test_dx_is_i_minus_j(self):
        box = Box(length=10.0, periodic=False)
        pos = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        h = np.full(2, 1.0)
        pairs = brute_force_pairs(pos, h, box)
        k = np.where((pairs.i == 0) & (pairs.j == 1))[0][0]
        assert np.allclose(pairs.dx[k], [1.0, 0.0, 0.0])

    def test_brute_force_lists_upper_triangle_then_mirror(self):
        """The oracle's order: i < j pairs in triu order, then mirrors."""
        box = Box(length=1.0, periodic=True)
        pos, h = random_particles(60, box, 0.1, seed=7)
        pairs = brute_force_pairs(pos, h, box)
        k = pairs.n_pairs // 2
        assert 2 * k == pairs.n_pairs
        assert np.all(np.diff(pairs.i[:k] * 60 + pairs.j[:k]) > 0)
        assert np.all(pairs.i[:k] < pairs.j[:k])
        assert np.array_equal(pairs.i[k:], pairs.j[:k])
        assert np.array_equal(pairs.j[k:], pairs.i[:k])
        assert np.array_equal(pairs.dx[k:], -pairs.dx[:k])
        assert np.array_equal(pairs.r[k:], pairs.r[:k])

    def test_neighbor_counts(self):
        box = Box(length=10.0, periodic=False)
        pos = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [9.0, 0.0, 0.0]])
        h = np.full(3, 0.5)
        pairs = brute_force_pairs(pos, h, box)
        assert pairs.neighbor_counts().tolist() == [1, 1, 0]

    def test_cell_list_matches_brute_force_open(self):
        box = Box(length=1.0, periodic=False)
        pos, h = random_particles(400, box, 0.06, seed=1)
        bf = brute_force_pairs(pos, h, box)
        cl = to_directed(csr_neighbors(pos, h, box))
        assert pair_set(bf) == pair_set(cl)

    def test_cell_list_matches_brute_force_periodic(self):
        box = Box(length=1.0, periodic=True)
        pos, h = random_particles(400, box, 0.06, seed=2)
        bf = brute_force_pairs(pos, h, box)
        cl = to_directed(csr_neighbors(pos, h, box))
        assert pair_set(bf) == pair_set(cl)

    def test_cell_list_small_periodic_box_stencil_dedup(self):
        """Huge cutoffs collapse the grid to 1-2 cells per periodic axis;
        the deduplicated stencil must keep the candidate list exact (this
        regime used to fall back to brute force)."""
        box = Box(length=1.0, periodic=True)
        pos, h = random_particles(50, box, 0.25, seed=3)  # huge cutoff
        bf = brute_force_pairs(pos, h, box)
        cl = to_directed(csr_neighbors(pos, h, box))
        assert pair_set(bf) == pair_set(cl)

    def test_find_neighbors_is_cell_list(self):
        box = Box(length=1.0, periodic=True)
        pos, h = random_particles(200, box, 0.05, seed=4)
        pairs = to_directed(csr_neighbors(pos, h, box))
        assert pair_set(pairs) == pair_set(brute_force_pairs(pos, h, box))

    def test_mismatched_lengths_rejected(self):
        box = Box(length=1.0)
        with pytest.raises(SimulationError):
            brute_force_pairs(np.zeros((3, 3)), np.ones(2), box)

    @given(
        st.integers(min_value=5, max_value=120),
        st.floats(min_value=0.02, max_value=0.15),
        st.booleans(),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_cell_list_equivalence_property(self, n, h_value, periodic, seed):
        """Cell list and brute force agree for arbitrary configurations."""
        box = Box(length=1.0, periodic=periodic)
        pos, h = random_particles(n, box, h_value, seed)
        bf = brute_force_pairs(pos, h, box)
        cl = to_directed(csr_neighbors(pos, h, box))
        assert pair_set(bf) == pair_set(cl)

    def test_single_code_path_across_sizes(self):
        """The cell list is the only production path; it must agree with
        the brute-force oracle at any N (the old small-N dispatch to
        brute force is gone)."""
        box = Box(length=1.0, periodic=False)
        for n in (2, 8, 128, 513):
            pos, h = random_particles(n, box, 0.1, seed=5)
            assert pair_set(to_directed(csr_neighbors(pos, h, box))) == pair_set(
                brute_force_pairs(pos, h, box)
            )

    def test_open_box_grid_anchored_at_box_bounds(self):
        """Interior open-box configurations bin independently of strays:
        identical pair geometry whether or not a far-away particle exists."""
        box = Box(length=2.0, periodic=False)
        pos, h = random_particles(200, box, 0.1, seed=6)
        base = to_directed(csr_neighbors(pos, h, box))
        # The grid origin is the box bound, not the particle minimum.
        shifted = to_directed(csr_neighbors(pos - 0.01, h, box))
        assert pair_set(base) == pair_set(
            brute_force_pairs(pos, h, box)
        )
        assert pair_set(shifted) == pair_set(
            brute_force_pairs(pos - 0.01, h, box)
        )

    def test_cell_grid_overflow_guard(self):
        """A pathologically small cutoff raises instead of wrapping int64."""
        box = Box(length=1.0, periodic=True)
        pos = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]] * 100)
        h = np.full(len(pos), 1e-8)
        with pytest.raises(SimulationError, match="overflow"):
            csr_neighbors(pos, h, box)

    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=25, deadline=None)
    def test_pairs_symmetric_property(self, n, seed):
        """(i, j) present implies (j, i) present with equal distance."""
        box = Box(length=1.0, periodic=True)
        pos, h = random_particles(n, box, 0.1, seed)
        pairs = brute_force_pairs(pos, h, box)
        forward = pair_set(pairs)
        assert forward == {(j, i) for i, j in forward}
