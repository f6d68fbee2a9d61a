"""Distributed-vs-serial equivalence: the executable proof that the
cornerstone domain decomposition and halo machinery are correct."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sph import ProfilingHooks
from repro.sph.distributed import DistributedHydro
from repro.sph.initial_conditions import make_turbulence
from repro.sph.propagator import Propagator


def make_state(seed=17, n_side=8):
    ps, box = make_turbulence(n_side=n_side, seed=seed)
    rng = np.random.default_rng(seed)
    ps.vel = rng.normal(0.0, 0.08, size=ps.vel.shape)
    return ps, box


def run_serial(steps, seed=17):
    ps, box = make_state(seed)
    prop = Propagator(box)
    hooks = ProfilingHooks()
    for _ in range(steps):
        stats = prop.step(ps, hooks)
    return ps, stats


def run_distributed(steps, n_ranks, seed=17):
    ps, box = make_state(seed)
    dist = DistributedHydro(box, n_ranks=n_ranks)
    for _ in range(steps):
        stats = dist.step(ps)
    return ps, stats, dist


class TestEquivalence:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_single_step_matches_serial(self, n_ranks):
        serial_ps, serial_stats = run_serial(1)
        dist_ps, dist_stats, _ = run_distributed(1, n_ranks)
        # Both orderings are SFC-sorted after sync, so arrays align.
        assert np.allclose(dist_ps.pos, serial_ps.pos, rtol=1e-9, atol=1e-12)
        assert np.allclose(dist_ps.vel, serial_ps.vel, rtol=1e-9, atol=1e-12)
        assert np.allclose(dist_ps.rho, serial_ps.rho, rtol=1e-9)
        assert np.allclose(dist_ps.u, serial_ps.u, rtol=1e-8)
        assert dist_stats.dt == pytest.approx(serial_stats.dt, rel=1e-9)

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_multi_step_matches_serial(self, n_ranks):
        serial_ps, _ = run_serial(5)
        dist_ps, _, _ = run_distributed(5, n_ranks)
        assert np.allclose(dist_ps.pos, serial_ps.pos, rtol=1e-7, atol=1e-10)
        assert np.allclose(dist_ps.rho, serial_ps.rho, rtol=1e-7)
        assert np.allclose(dist_ps.u, serial_ps.u, rtol=1e-6)

    def test_neighbor_counts_match(self):
        serial_ps, _ = run_serial(1)
        dist_ps, _, _ = run_distributed(1, 4)
        assert np.array_equal(dist_ps.nc, serial_ps.nc)

    def test_conserved_quantities_match(self):
        _, serial_stats = run_serial(3)
        _, dist_stats, _ = run_distributed(3, 4)
        assert dist_stats.totals.kinetic == pytest.approx(
            serial_stats.totals.kinetic, rel=1e-7
        )
        assert dist_stats.totals.internal == pytest.approx(
            serial_stats.totals.internal, rel=1e-7
        )

    def test_momentum_conserved_distributed(self):
        ps, box = make_state()
        p0 = ps.momentum().copy()
        dist = DistributedHydro(box, n_ranks=4)
        for _ in range(5):
            dist.step(ps)
        assert np.abs(ps.momentum() - p0).max() < 1e-10


class TestCommAccounting:
    def test_halo_counts_positive_with_multiple_ranks(self):
        _, _, dist = run_distributed(2, 4)
        for comm in dist.comm_history:
            assert sum(comm.halo_particles) > 0
            assert comm.halo_bytes > 0
            assert comm.halo_exchanges == 4  # sync, rho, p/c, iad
            assert comm.allreduce_count == 2

    def test_single_rank_has_no_halos(self):
        _, _, dist = run_distributed(1, 1)
        assert sum(dist.comm_history[0].halo_particles) == 0

    def test_more_ranks_more_halo_traffic(self):
        _, _, two = run_distributed(1, 2)
        _, _, four = run_distributed(1, 4)
        assert (
            sum(four.comm_history[0].halo_particles)
            > sum(two.comm_history[0].halo_particles)
        )

    def test_hooks_cover_distributed_functions(self):
        ps, box = make_state()
        dist = DistributedHydro(box, n_ranks=2)
        hooks = ProfilingHooks()
        dist.step(ps, hooks)
        for name in (
            "DomainDecompAndSync",
            "FindNeighbors",
            "Density",
            "MomentumEnergy",
            "Timestep",
        ):
            assert hooks.counts[name] == 1

    def test_invalid_rank_count(self):
        _, box = make_state()
        with pytest.raises(SimulationError):
            DistributedHydro(box, n_ranks=0)

    def test_no_kernel_implementation_option(self):
        _, box = make_state()
        with pytest.raises(TypeError):
            DistributedHydro(box, 2, accel="c")
