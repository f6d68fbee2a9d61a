"""Property tests for the pair-cache layer.

The Verlet skin list and the physics chain run over its cached pairs must
be *exact* reformulations of the directed oracles in ``tests/oracles/``:
identical pair sets after arbitrary movement, physics fields equal to
<= 1e-12 relative error, and momentum conservation to round-off — across
turbulence and Sedov configurations, periodic and open boxes, serial and
distributed drivers.  The shared helpers here (:func:`clone`,
:func:`make_case`, :func:`run_oracle`, :func:`assert_matches_oracle`)
also feed the CSR engine's oracle tests in ``tests/test_neighbors_csr.py``.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sph.box import Box
from repro.sph.distributed import DistributedHydro
from repro.sph.initial_conditions import make_sedov, make_turbulence
from repro.sph.neighbors import csr_neighbors
from repro.sph.pair_cache import CsrStepContext, CsrVerletList
from repro.sph.particles import ParticleSet
from repro.sph.physics import (
    compute_density,
    compute_iad_and_divcurl,
    compute_momentum_energy,
    ideal_gas_eos,
)
from repro.sph.physics.grad_h import compute_omega
from repro.sph.propagator import Propagator
from repro.sph.simulation import Simulation
from tests.oracles.neighbors import PairList, brute_force_pairs, to_directed
from tests.oracles.physics import (
    directed_density,
    directed_iad_and_divcurl,
    directed_momentum_energy,
    directed_omega,
    scatter_sum_rows,
)

RTOL = 1e-12


def clone(ps: ParticleSet) -> ParticleSet:
    out = ParticleSet(ps.n)
    for name in ps._VEC_FIELDS + ps._SCALAR_FIELDS + ("c_iad", "nc"):
        setattr(out, name, getattr(ps, name).copy())
    return out


def directed_set(pairs):
    return set(zip(pairs.i.tolist(), pairs.j.tolist()))


def assert_matches_oracle(csr, oracle: PairList):
    """Directed pair sets identical; geometry equal to <= 1e-12."""
    got = to_directed(csr)
    assert directed_set(got) == directed_set(oracle)
    order_g = np.lexsort((got.j, got.i))
    order_w = np.lexsort((oracle.j, oracle.i))
    assert np.allclose(
        got.r[order_g], oracle.r[order_w], rtol=RTOL, atol=0.0
    )
    assert np.allclose(
        got.dx[order_g], oracle.dx[order_w], rtol=RTOL, atol=1e-300
    )
    # The CSR invariants themselves.
    assert csr.offsets[0] == 0
    assert csr.offsets[-1] == csr.n_pairs
    assert np.all(np.diff(csr.offsets) >= 0)
    counts = csr.neighbor_counts()
    assert counts.sum() == csr.n_pairs
    assert np.array_equal(counts, oracle.neighbor_counts())


def make_case(name):
    """(particles-with-velocities, box) for a named configuration."""
    if name == "turbulence":
        ps, box = make_turbulence(n_side=7, seed=3)
    elif name == "sedov":
        ps, box = make_sedov(n_side=6, seed=4)
    elif name == "open":
        ps, box = make_turbulence(n_side=7, seed=5)
        box = Box(length=1.0, periodic=False)
    else:  # pragma: no cover - guard against typo'd parametrization
        raise ValueError(name)
    rng = np.random.default_rng(sum(ord(c) for c in name))
    ps.vel = ps.vel + rng.normal(0.0, 0.05, size=ps.vel.shape)
    return ps, box


def run_oracle(ps, box):
    """The directed-pair physics chain of ``tests/oracles/physics.py``."""
    pairs = to_directed(csr_neighbors(ps.pos, ps.h, box))
    ps.nc = pairs.neighbor_counts()
    directed_density(ps, pairs)
    ideal_gas_eos(ps)
    directed_iad_and_divcurl(ps, pairs)
    omega = directed_omega(ps, pairs)
    directed_momentum_energy(ps, pairs, omega=omega)
    return ps


def drifted(ps, box):
    """Nudge every particle by a small fixed random step, well inside the
    skin, so a cached neighbor list stays valid."""
    rng = np.random.default_rng(13)
    sigma = 0.001 * float(np.mean(ps.h))
    ps.pos = box.wrap(ps.pos + rng.normal(0.0, sigma, size=ps.pos.shape))
    return ps


def run_cached(ps, box):
    """The same chain through a CsrStepContext over pairs that a skin
    cache serves from its candidates rather than from a fresh search."""
    nlist = CsrVerletList(box)
    nlist.query(ps.pos, ps.h)
    csr = nlist.query(drifted(ps, box).pos, ps.h)
    assert nlist.n_builds == 1  # the second query came from the cache
    ctx = CsrStepContext(csr, ps.h)
    ps.nc = csr.neighbor_counts()
    compute_density(ps, ctx)
    ideal_gas_eos(ps)
    compute_iad_and_divcurl(ps, ctx)
    omega = compute_omega(ps, ctx)
    compute_momentum_energy(ps, ctx, omega=omega)
    return ps


class TestHalfPairEquivalence:
    """Physics over skin-cached pairs == directed oracle physics, to
    <= 1e-12.  (The class keeps the name of the half-pair engine it first
    covered; the cached path it checks is now the CSR one.)"""

    @pytest.mark.parametrize("case", ["turbulence", "sedov", "open"])
    def test_full_chain_matches_oracle(self, case):
        ps, box = make_case(case)
        oracle = run_oracle(drifted(clone(ps), box), box)
        cached = run_cached(clone(ps), box)

        assert np.array_equal(oracle.pos, cached.pos)
        assert np.array_equal(oracle.nc, cached.nc)
        for field in ("rho", "p", "c", "div_v", "curl_v", "du", "v_sig_max"):
            a, b = getattr(oracle, field), getattr(cached, field)
            assert np.allclose(a, b, rtol=RTOL, atol=1e-300), field
        scale = np.abs(oracle.acc).max()
        assert np.abs(oracle.acc - cached.acc).max() <= RTOL * scale
        assert np.allclose(oracle.c_iad, cached.c_iad, rtol=1e-10)

    @pytest.mark.parametrize("case", ["turbulence", "sedov", "open"])
    def test_momentum_conserved_to_roundoff(self, case):
        ps, box = make_case(case)
        cached = run_cached(ps, box)
        net = np.sum(cached.mass[:, None] * cached.acc, axis=0)
        scale = np.sum(np.abs(cached.mass[:, None] * cached.acc)) + 1e-300
        assert np.abs(net).max() < 1e-13 * scale * 10


class TestVerletList:
    """The skin cache must reproduce the fresh search exactly, always."""

    def drift(self, ps, box, rng, sigma):
        ps.pos = box.wrap(ps.pos + rng.normal(0.0, sigma, size=ps.pos.shape))

    @pytest.mark.parametrize("case", ["turbulence", "sedov", "open"])
    def test_matches_oracle_after_movement(self, case):
        ps, box = make_case(case)
        nlist = CsrVerletList(box)
        rng = np.random.default_rng(17)
        sigma = 0.002 * float(np.mean(ps.h))
        for _ in range(8):
            csr = nlist.query(ps.pos, ps.h)
            assert_matches_oracle(csr, brute_force_pairs(ps.pos, ps.h, box))
            # Bitwise the geometry of a fresh search.
            got = to_directed(csr)
            want = to_directed(csr_neighbors(ps.pos, ps.h, box))
            order_g = np.lexsort((got.j, got.i))
            order_w = np.lexsort((want.j, want.i))
            assert np.allclose(got.r[order_g], want.r[order_w], rtol=0, atol=0)
            assert np.allclose(
                got.dx[order_g], want.dx[order_w], rtol=0, atol=0
            )
            self.drift(ps, box, rng, sigma)
        # Small drifts must actually exercise the cache, not rebuild
        # every step.
        assert nlist.n_builds < nlist.n_queries
        assert nlist.rebuild_fraction < 1.0

    def test_growing_h_stays_exact(self):
        """Smoothing-length growth beyond the skin cannot be missed."""
        ps, box = make_case("turbulence")
        nlist = CsrVerletList(box)
        nlist.query(ps.pos, ps.h)
        ps.h = ps.h * 1.5  # new pairs appear without any movement
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
        assert nlist.n_builds == 1  # the cached candidates still cover it

    def test_reorder_preserves_cache(self):
        ps, box = make_case("turbulence")
        nlist = CsrVerletList(box)
        nlist.query(ps.pos, ps.h)
        rng = np.random.default_rng(29)
        order = rng.permutation(ps.n)
        ps.reorder(order)
        nlist.reorder(order)
        got = nlist.query(ps.pos, ps.h)
        assert_matches_oracle(got, brute_force_pairs(ps.pos, ps.h, box))
        assert nlist.n_builds == 1  # permutation alone never rebuilds

    def test_zero_skin_rebuilds_every_query(self):
        ps, box = make_case("turbulence")
        nlist = CsrVerletList(box, skin_factor=0.0)
        for _ in range(3):
            nlist.query(ps.pos, ps.h)
        assert nlist.n_builds == 3

    def test_negative_skin_rejected(self):
        with pytest.raises(SimulationError):
            CsrVerletList(Box(length=1.0), skin_factor=-0.1)

    def test_particle_count_change_invalidates(self):
        ps, box = make_case("turbulence")
        nlist = CsrVerletList(box)
        nlist.query(ps.pos, ps.h)
        got = nlist.query(ps.pos[:-10], ps.h[:-10])
        assert_matches_oracle(got, brute_force_pairs(ps.pos[:-10], ps.h[:-10], box))
        assert nlist.n_builds == 2


class TestScatterHelpers:
    def test_scatter_sum_rows_matches_add_at(self):
        rng = np.random.default_rng(31)
        idx = rng.integers(0, 50, size=400)
        rows = rng.normal(size=(400, 3))
        want = np.zeros((50, 3))
        np.add.at(want, idx, rows)
        assert np.allclose(scatter_sum_rows(idx, rows, 50), want, rtol=1e-14)


class TestPropagatorIntegration:
    def test_csr_is_the_only_engine(self):
        box = Box(length=1.0)
        assert Propagator(box).engine == "csr"
        with pytest.raises(TypeError):
            Propagator(box, engine="csr")

    def test_numpy_is_the_only_kernel_implementation(self):
        box = Box(length=1.0)
        assert Propagator.accel == "numpy"
        assert Propagator._cfast is None
        prop = Propagator(box)
        assert prop.accel == "numpy" and prop._cfast is None
        for mode in ("c", "numpy"):
            with pytest.raises(TypeError):
                Propagator(box, accel=mode)

    def test_verlet_propagator_matches_no_skin(self):
        """Caching must not change the trajectory (same pair sets, so any
        difference is accumulation-order round-off)."""
        histories = {}
        for skin in (0.0, 0.3):
            ps, box = make_turbulence(n_side=6, seed=9)
            rng = np.random.default_rng(41)
            ps.vel = rng.normal(0.0, 0.05, size=ps.vel.shape)
            sim = Simulation(ps, Propagator(box, skin_factor=skin))
            sim.run(8)
            histories[skin] = (ps.pos.copy(), ps.u.copy(), sim.history)
        pos_a, u_a, hist_a = histories[0.0]
        pos_b, u_b, hist_b = histories[0.3]
        assert np.allclose(pos_a, pos_b, rtol=0, atol=1e-10)
        assert np.allclose(u_a, u_b, rtol=1e-9)
        # Identical pair sets every step.
        assert [s.n_pairs for s in hist_a] == [s.n_pairs for s in hist_b]
        assert all(s.neighbors_rebuilt for s in hist_a)
        assert not all(s.neighbors_rebuilt for s in hist_b)

    def test_propagator_amortizes_rebuilds(self):
        ps, box = make_turbulence(n_side=6, seed=10)
        prop = Propagator(box)
        Simulation(ps, prop).run(10)
        assert prop.neighbor_list.rebuild_fraction < 1.0

    def test_gravity_step_avoids_direct_sum_potential(self, monkeypatch):
        """Acceptance: the Evrard hot loop uses the tree potential (src has
        no direct sum at all), and one tree traversal per step yields both
        the forces and the potential."""
        import repro.sph.gravity as gravity_mod

        assert not hasattr(gravity_mod, "direct_sum_potential")
        traversals = []
        walk = gravity_mod.BarnesHutGravity._walk

        def counting_walk(self, node_id, *args):
            if node_id == 0:
                traversals.append(node_id)
            return walk(self, node_id, *args)

        monkeypatch.setattr(gravity_mod.BarnesHutGravity, "_walk", counting_walk)
        from repro.sph.initial_conditions import make_evrard

        ps, box = make_evrard(500)
        sim = Simulation(ps, Propagator(box, gravity=True))
        stats = sim.run(2)
        assert stats[-1].totals.total_energy < 0  # bound collapse
        assert stats[-1].totals.potential < 0
        assert len(traversals) == 2  # one per step


class TestDistributedEquivalence:
    @pytest.mark.parametrize("n_ranks", [2, 3])
    def test_distributed_matches_serial_on_cached_path(self, n_ranks):
        def initial():
            ps, box = make_turbulence(n_side=6, seed=11)
            rng = np.random.default_rng(43)
            ps.vel = rng.normal(0.0, 0.05, size=ps.vel.shape)
            return ps, box

        ps_s, box = initial()
        serial = Propagator(box)
        from repro.sph.hooks import ProfilingHooks

        for _ in range(3):
            serial.step(ps_s, ProfilingHooks())

        ps_d, box = initial()
        dist = DistributedHydro(box, n_ranks=n_ranks)
        for _ in range(3):
            dist.step(ps_d)

        # Same SFC order on both sides, so fields align row-for-row.
        assert np.array_equal(ps_s.nc, ps_d.nc)
        assert np.allclose(ps_s.pos, ps_d.pos, rtol=0, atol=1e-9)
        assert np.allclose(ps_s.rho, ps_d.rho, rtol=1e-9)
        assert np.allclose(ps_s.u, ps_d.u, rtol=1e-8)
