"""Tests for the cornerstone SFC octree: Morton codes, tree invariants,
domain partitioning and halo completeness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sph.box import Box
from repro.sph.cornerstone import (
    DomainDecomposition,
    KEY_RANGE,
    MAX_COORD,
    build_cornerstone,
    encode_morton,
    leaf_counts,
    partition_leaves,
    sfc_keys,
)
from repro.sph.particles import ParticleSet
from tests.oracles.cornerstone import (
    decode_morton,
    node_aligned,
    validate_cornerstone,
)
from tests.oracles.neighbors import brute_force_pairs


class TestMorton:
    def test_origin(self):
        assert encode_morton(np.array([0]), np.array([0]), np.array([0]))[0] == 0

    def test_unit_coordinates(self):
        # x is the most significant dimension.
        x = encode_morton(np.array([1]), np.array([0]), np.array([0]))[0]
        y = encode_morton(np.array([0]), np.array([1]), np.array([0]))[0]
        z = encode_morton(np.array([0]), np.array([0]), np.array([1]))[0]
        assert (x, y, z) == (4, 2, 1)

    def test_max_coordinate(self):
        m = MAX_COORD - 1
        key = encode_morton(np.array([m]), np.array([m]), np.array([m]))[0]
        assert key == KEY_RANGE - np.uint64(1)

    def test_out_of_range_rejected(self):
        with pytest.raises(SimulationError):
            encode_morton(np.array([MAX_COORD]), np.array([0]), np.array([0]))
        with pytest.raises(SimulationError):
            encode_morton(np.array([-1]), np.array([0]), np.array([0]))

    @given(
        st.integers(min_value=0, max_value=MAX_COORD - 1),
        st.integers(min_value=0, max_value=MAX_COORD - 1),
        st.integers(min_value=0, max_value=MAX_COORD - 1),
    )
    @settings(max_examples=100)
    def test_roundtrip_property(self, ix, iy, iz):
        keys = encode_morton(np.array([ix]), np.array([iy]), np.array([iz]))
        dx, dy, dz = decode_morton(keys)
        assert (dx[0], dy[0], dz[0]) == (ix, iy, iz)

    def test_locality(self):
        """Adjacent cells in z differ in the low bits only."""
        a = encode_morton(np.array([5]), np.array([9]), np.array([2]))[0]
        b = encode_morton(np.array([5]), np.array([9]), np.array([3]))[0]
        assert b == a + np.uint64(1)

    def test_sfc_keys_span_box(self):
        box = Box(length=2.0, periodic=True)
        edge = 1.0 - 1e-9
        pos = np.array([[-1.0, -1.0, -1.0], [edge, edge, edge]])
        keys = sfc_keys(pos, box)
        assert keys[0] == 0
        assert keys[1] == KEY_RANGE - np.uint64(1)


class TestCornerstoneTree:
    def make_codes(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return np.sort(
            rng.integers(0, int(KEY_RANGE), size=n, dtype=np.uint64)
        )

    def test_root_only_when_under_bucket(self):
        codes = self.make_codes(10)
        leaves = build_cornerstone(codes, bucket_size=64)
        assert len(leaves) == 2
        validate_cornerstone(leaves)

    def test_invariants_after_refinement(self):
        codes = self.make_codes(5000, seed=1)
        leaves = build_cornerstone(codes, bucket_size=64)
        validate_cornerstone(leaves)

    def test_bucket_respected(self):
        codes = self.make_codes(5000, seed=2)
        leaves = build_cornerstone(codes, bucket_size=64)
        counts = leaf_counts(leaves, codes)
        assert counts.max() <= 64

    def test_counts_sum_to_particles(self):
        codes = self.make_codes(3000, seed=3)
        leaves = build_cornerstone(codes, bucket_size=32)
        assert leaf_counts(leaves, codes).sum() == 3000

    def test_clustered_codes_refine_deeply(self):
        # All particles in one octant: the tree refines there only.
        rng = np.random.default_rng(4)
        codes = np.sort(
            rng.integers(0, int(KEY_RANGE) // 512, size=2000, dtype=np.uint64)
        )
        leaves = build_cornerstone(codes, bucket_size=64)
        validate_cornerstone(leaves)
        assert leaf_counts(leaves, codes).max() <= 64

    def test_unsorted_codes_rejected(self):
        with pytest.raises(SimulationError):
            build_cornerstone(np.array([5, 3], dtype=np.uint64), 8)

    def test_bad_bucket_rejected(self):
        with pytest.raises(SimulationError):
            build_cornerstone(np.array([], dtype=np.uint64), 0)

    def test_node_aligned(self):
        assert node_aligned(0, 8)
        assert node_aligned(8, 8)
        assert node_aligned(0, 64)
        assert not node_aligned(4, 8)   # misaligned start
        assert not node_aligned(0, 16)  # power of 2, not of 8
        assert not node_aligned(0, 0)

    @given(
        st.integers(min_value=1, max_value=2000),
        st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=25, deadline=None)
    def test_invariants_property(self, n, bucket):
        rng = np.random.default_rng(n * 1000 + bucket)
        codes = np.sort(rng.integers(0, int(KEY_RANGE), size=n, dtype=np.uint64))
        leaves = build_cornerstone(codes, bucket)
        validate_cornerstone(leaves)
        assert leaf_counts(leaves, codes).sum() == n


class TestPartition:
    def test_even_split(self):
        counts = np.full(8, 10)
        bounds = partition_leaves(counts, 4)
        assert bounds.tolist() == [0, 2, 4, 6, 8]

    def test_skewed_split_balances(self):
        counts = np.array([100, 1, 1, 1, 1, 1, 1, 100])
        bounds = partition_leaves(counts, 2)
        left = counts[bounds[0]:bounds[1]].sum()
        right = counts[bounds[1]:bounds[2]].sum()
        assert abs(int(left) - int(right)) <= 100

    def test_single_rank(self):
        bounds = partition_leaves(np.array([5, 5]), 1)
        assert bounds.tolist() == [0, 2]

    def test_invalid_ranks(self):
        with pytest.raises(SimulationError):
            partition_leaves(np.array([1]), 0)

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=64),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50)
    def test_partition_property(self, counts, n_ranks):
        counts = np.array(counts)
        bounds = partition_leaves(counts, n_ranks)
        assert len(bounds) == n_ranks + 1
        assert bounds[0] == 0 and bounds[-1] == len(counts)
        assert np.all(np.diff(bounds) >= 0)


class TestDomainDecomposition:
    def make_particles(self, n, seed=0):
        rng = np.random.default_rng(seed)
        ps = ParticleSet(n)
        ps.pos = rng.uniform(-0.5, 0.5, size=(n, 3))
        ps.mass[:] = 1.0 / n
        ps.h[:] = 0.07
        ps.u[:] = 1.0
        return ps

    def test_sync_sorts_by_sfc(self):
        box = Box(length=1.0, periodic=True)
        ps = self.make_particles(500)
        domain = DomainDecomposition(box, n_ranks=4)
        domain.sync(ps)
        keys = sfc_keys(ps.pos, box)
        assert np.all(keys[1:] >= keys[:-1])

    def test_ranges_partition_particles(self):
        box = Box(length=1.0, periodic=True)
        ps = self.make_particles(500, seed=1)
        domain = DomainDecomposition(box, n_ranks=4)
        result = domain.sync(ps)
        starts = [r[0] for r in result.rank_ranges]
        ends = [r[1] for r in result.rank_ranges]
        assert starts[0] == 0 and ends[-1] == ps.n
        for k in range(3):
            assert ends[k] == starts[k + 1]

    def test_balance(self):
        box = Box(length=1.0, periodic=True)
        ps = self.make_particles(2000, seed=2)
        domain = DomainDecomposition(box, n_ranks=4, bucket_size=16)
        result = domain.sync(ps)
        owned = [result.owned_count(r) for r in range(4)]
        assert max(owned) <= 1.5 * min(owned)

    def test_halo_completeness(self):
        """Every neighbour of an owned particle is owned or in the halo."""
        box = Box(length=1.0, periodic=True)
        ps = self.make_particles(600, seed=3)
        domain = DomainDecomposition(box, n_ranks=4, bucket_size=16)
        result = domain.sync(ps)
        pairs = brute_force_pairs(ps.pos, ps.h, box)
        for rank in range(4):
            start, end = result.rank_ranges[rank]
            halos = set(domain.halo_indices(ps, rank).tolist())
            owned = set(range(start, end))
            mask = (pairs.i >= start) & (pairs.i < end)
            needed = set(pairs.j[mask].tolist())
            assert needed <= owned | halos

    def test_halos_exclude_owned(self):
        box = Box(length=1.0, periodic=True)
        ps = self.make_particles(500, seed=4)
        domain = DomainDecomposition(box, n_ranks=2)
        result = domain.sync(ps)
        start, end = result.rank_ranges[0]
        halos = domain.halo_indices(ps, 0)
        assert np.all((halos < start) | (halos >= end))

    def test_halo_bytes_positive(self):
        box = Box(length=1.0, periodic=True)
        ps = self.make_particles(500, seed=5)
        domain = DomainDecomposition(box, n_ranks=4)
        domain.sync(ps)
        assert domain.halo_bytes(ps, 0) > 0

    def test_halo_requires_sync(self):
        box = Box(length=1.0, periodic=True)
        ps = self.make_particles(100)
        domain = DomainDecomposition(box, n_ranks=2)
        with pytest.raises(SimulationError):
            domain.halo_indices(ps, 0)

    def test_single_rank_owns_everything(self):
        box = Box(length=1.0, periodic=True)
        ps = self.make_particles(300, seed=6)
        domain = DomainDecomposition(box, n_ranks=1)
        result = domain.sync(ps)
        assert result.rank_ranges == [(0, 300)]
        assert len(domain.halo_indices(ps, 0)) == 0
