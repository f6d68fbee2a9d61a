"""Property tests for the flat CSR neighbor engine.

The CSR cell-list builder, the skin-cached :class:`CsrVerletList` and the
:class:`CsrStepContext` SoA kernel engine must be *exact* reformulations
of the directed oracles in ``tests/oracles/``: identical directed pair
sets for arbitrary configurations (random boxes, periodic wrap, mixed
smoothing lengths, isolated particles), pair geometry equal to <= 1e-12,
physics fields equal to <= 1e-12 relative error, and momentum
conservation to round-off.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sph.box import Box
from repro.sph.neighbors import BufferPool, csr_neighbors
from repro.sph.pair_cache import CsrStepContext, CsrVerletList
from repro.sph.physics import (
    compute_density,
    compute_iad_and_divcurl,
    compute_momentum_energy,
    ideal_gas_eos,
)
from repro.sph.physics.grad_h import compute_omega
from tests.oracles.neighbors import brute_force_pairs, to_directed
from tests.test_pair_cache import (
    assert_matches_oracle,
    clone,
    directed_set,
    make_case,
    run_oracle,
)

RTOL = 1e-12


def run_csr(ps, box, pool=None):
    """The physics chain through the CSR/SoA engine."""
    csr = csr_neighbors(ps.pos, ps.h, box)
    ctx = CsrStepContext(csr, ps.h, pool=pool)
    ps.nc = csr.neighbor_counts()
    compute_density(ps, ctx)
    ideal_gas_eos(ps)
    compute_iad_and_divcurl(ps, ctx)
    omega = compute_omega(ps, ctx)
    compute_momentum_energy(ps, ctx, omega=omega)
    return ps


class TestCsrBuilder:
    """csr_neighbors == directed brute force, for any configuration."""

    @given(
        st.integers(min_value=2, max_value=120),
        st.floats(min_value=0.02, max_value=0.2),
        st.booleans(),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_equivalence_property(self, n, h_scale, periodic, seed):
        """Random boxes, uniform h: exact directed pair sets + geometry."""
        box = Box(length=1.0, periodic=periodic)
        rng = np.random.default_rng(seed)
        pos = rng.uniform(box.lo, box.hi, size=(n, 3))
        h = np.full(n, h_scale)
        assert_matches_oracle(
            csr_neighbors(pos, h, box), brute_force_pairs(pos, h, box)
        )

    @given(
        st.integers(min_value=2, max_value=80),
        st.booleans(),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_mixed_h_property(self, n, periodic, seed):
        """Per-particle smoothing lengths: the union cutoff 2 max(hi, hj)
        must bin by the *largest* support, never drop a long-reach pair."""
        box = Box(length=1.0, periodic=periodic)
        rng = np.random.default_rng(seed)
        pos = rng.uniform(box.lo, box.hi, size=(n, 3))
        h = rng.uniform(0.02, 0.18, size=n)
        assert_matches_oracle(
            csr_neighbors(pos, h, box), brute_force_pairs(pos, h, box)
        )

    def test_periodic_wrap_pairs(self):
        """Pairs across every face and corner of the periodic box."""
        box = Box(length=1.0, periodic=True)
        eps = 0.01
        corner = 0.5 - eps
        pos = np.array(
            [
                [-corner, 0.0, 0.0], [corner, 0.0, 0.0],
                [0.0, -corner, 0.0], [0.0, corner, 0.0],
                [-corner, -corner, -corner], [corner, corner, corner],
            ]
        )
        h = np.full(len(pos), 0.05)
        csr = csr_neighbors(pos, h, box)
        assert_matches_oracle(csr, brute_force_pairs(pos, h, box))
        assert directed_set(to_directed(csr)) == {
            (0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4),
        }

    def test_empty_neighborhoods(self):
        """Isolated particles keep empty CSR segments (zero counts) and
        the segment reductions must not leak neighbours into them."""
        box = Box(length=4.0, periodic=False)
        pos = np.array(
            [
                [0.0, 0.0, 0.0], [0.05, 0.0, 0.0],  # a close pair
                [1.5, 1.5, 1.5],                     # isolated
                [-1.5, -1.5, 1.5],                   # isolated
            ]
        )
        h = np.full(4, 0.1)
        csr = csr_neighbors(pos, h, box)
        assert_matches_oracle(csr, brute_force_pairs(pos, h, box))
        assert csr.neighbor_counts().tolist() == [1, 1, 0, 0]
        ctx = CsrStepContext(csr, h)
        sums = np.zeros(4)
        for b in ctx.blocks:
            b.sum_into(sums, np.ones(b.hi - b.lo))
        assert sums.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_no_particles_at_all_interacting(self):
        box = Box(length=10.0, periodic=False)
        pos = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        h = np.full(2, 0.1)
        csr = csr_neighbors(pos, h, box)
        assert csr.n_pairs == 0
        assert csr.neighbor_counts().tolist() == [0, 0]

    def test_pool_reuse_is_exact_and_allocation_free(self):
        """Re-querying through one pool must stay exact and, once warm,
        perform no further buffer growth (the no-per-step-allocations
        contract of the hot path)."""
        box = Box(length=1.0, periodic=True)
        rng = np.random.default_rng(7)
        pool = BufferPool()
        n = 300
        for trial in range(6):
            pos = rng.uniform(box.lo, box.hi, size=(n, 3))
            h = rng.uniform(0.04, 0.1, size=n)
            csr = csr_neighbors(pos, h, box, pool=pool)
            assert_matches_oracle(csr, brute_force_pairs(pos, h, box))
            if trial == 2:
                warm = pool.nbytes()
        assert pool.nbytes() == warm


class TestCsrPhysics:
    """CSR/SoA physics chain == directed oracle chain, to <= 1e-12."""

    @pytest.mark.parametrize("case", ["turbulence", "sedov", "open"])
    def test_full_chain_matches_oracle(self, case):
        ps, box = make_case(case)
        oracle = run_oracle(clone(ps), box)
        csr = run_csr(clone(ps), box)

        assert np.array_equal(oracle.nc, csr.nc)
        for field in ("rho", "p", "c", "div_v", "curl_v", "du", "v_sig_max"):
            a, b = getattr(oracle, field), getattr(csr, field)
            assert np.allclose(a, b, rtol=RTOL, atol=1e-300), field
        scale = np.abs(oracle.acc).max()
        assert np.abs(oracle.acc - csr.acc).max() <= RTOL * scale
        assert np.allclose(oracle.c_iad, csr.c_iad, rtol=1e-10)

    @pytest.mark.parametrize("case", ["turbulence", "sedov", "open"])
    def test_momentum_conserved_to_roundoff(self, case):
        ps, box = make_case(case)
        out = run_csr(ps, box)
        net = np.sum(out.mass[:, None] * out.acc, axis=0)
        scale = np.sum(np.abs(out.mass[:, None] * out.acc)) + 1e-300
        assert np.abs(net).max() < 1e-13 * scale * 10

    def test_kernel_values_match_legacy_context(self):
        """The branchless in-buffer cubic spline is the same polynomial
        as the piecewise kernel, re-associated; it may differ by a few
        ulp per value but never beyond."""
        ps, box = make_case("turbulence")
        csr = csr_neighbors(ps.pos, ps.h, box)
        ctx = CsrStepContext(csr, ps.h)
        from repro.sph.kernels.cubic_spline import CubicSplineKernel

        want = CubicSplineKernel.value(csr.r, ps.h[csr.row])
        assert np.allclose(ctx.w_own, want, rtol=5e-15, atol=0.0)


class TestCsrVerletList:
    """The CSR skin cache must reproduce a fresh search exactly, always."""

    def drift(self, ps, box, rng, sigma):
        ps.pos = box.wrap(ps.pos + rng.normal(0.0, sigma, size=ps.pos.shape))

    @pytest.mark.parametrize("case", ["turbulence", "sedov", "open"])
    def test_matches_oracle_after_movement(self, case):
        ps, box = make_case(case)
        nlist = CsrVerletList(box)
        rng = np.random.default_rng(17)
        sigma = 0.002 * float(np.mean(ps.h))
        for _ in range(8):
            got = nlist.query(ps.pos, ps.h)
            assert_matches_oracle(got, brute_force_pairs(ps.pos, ps.h, box))
            self.drift(ps, box, rng, sigma)
        assert nlist.n_builds < nlist.n_queries
        assert nlist.rebuild_fraction < 1.0

    @pytest.mark.parametrize("case", ["turbulence", "open"])
    def test_exact_under_reorder_and_drift(self, case):
        """SFC relabelings between queries: the cache follows the
        permutation through its label map instead of rebuilding, and the
        published list must stay exact in *current* labels."""
        ps, box = make_case(case)
        nlist = CsrVerletList(box)
        rng = np.random.default_rng(19)
        sigma = 0.002 * float(np.mean(ps.h))
        for _ in range(6):
            got = nlist.query(ps.pos, ps.h)
            assert_matches_oracle(got, brute_force_pairs(ps.pos, ps.h, box))
            order = rng.permutation(ps.n)
            ps.reorder(order)
            nlist.reorder(order)
            self.drift(ps, box, rng, sigma)
        # The permutations alone never forced a rebuild.
        assert nlist.n_builds < nlist.n_queries

    def test_large_moves_force_rebuild(self):
        ps, box = make_case("turbulence")
        nlist = CsrVerletList(box)
        rng = np.random.default_rng(23)
        for _ in range(3):
            got = nlist.query(ps.pos, ps.h)
            assert_matches_oracle(got, brute_force_pairs(ps.pos, ps.h, box))
            self.drift(ps, box, rng, 2.0 * float(np.mean(ps.h)))
        assert nlist.n_builds == nlist.n_queries

    def test_growing_h_stays_exact(self):
        ps, box = make_case("turbulence")
        nlist = CsrVerletList(box)
        nlist.query(ps.pos, ps.h)
        ps.h = ps.h * 1.5
        got = nlist.query(ps.pos, ps.h)
        assert_matches_oracle(got, brute_force_pairs(ps.pos, ps.h, box))
        assert nlist.n_builds == 2

    def test_shrinking_h_reuses_cache(self):
        ps, box = make_case("turbulence")
        nlist = CsrVerletList(box)
        nlist.query(ps.pos, ps.h)
        ps.h = ps.h * 0.9
        got = nlist.query(ps.pos, ps.h)
        assert_matches_oracle(got, brute_force_pairs(ps.pos, ps.h, box))
        assert nlist.n_builds == 1

    def test_zero_skin_rebuilds_every_query(self):
        ps, box = make_case("turbulence")
        nlist = CsrVerletList(box, skin_factor=0.0)
        for _ in range(3):
            got = nlist.query(ps.pos, ps.h)
            assert_matches_oracle(got, brute_force_pairs(ps.pos, ps.h, box))
        assert nlist.n_builds == 3

    def test_negative_skin_rejected(self):
        with pytest.raises(SimulationError):
            CsrVerletList(Box(length=1.0), skin_factor=-0.1)

    def test_particle_count_change_invalidates(self):
        ps, box = make_case("turbulence")
        nlist = CsrVerletList(box)
        nlist.query(ps.pos, ps.h)
        got = nlist.query(ps.pos[:-10], ps.h[:-10])
        assert_matches_oracle(
            got, brute_force_pairs(ps.pos[:-10], ps.h[:-10], box)
        )
        assert nlist.n_builds == 2

    def test_steady_state_queries_do_not_grow_pool(self):
        ps, box = make_case("turbulence")
        nlist = CsrVerletList(box)
        rng = np.random.default_rng(23)
        sigma = 0.001 * float(np.mean(ps.h))
        for _ in range(3):  # warm up (includes at least one build)
            nlist.query(ps.pos, ps.h)
            self.drift(ps, box, rng, sigma)
        warm = nlist.pool.nbytes()
        for _ in range(5):
            nlist.query(ps.pos, ps.h)
            self.drift(ps, box, rng, sigma)
        assert nlist.pool.nbytes() == warm
