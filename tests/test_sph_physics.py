"""Tests for the SPH physics kernels: density, EOS, IAD, momentum/energy,
timestep, integrator, smoothing length."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sph.box import Box
from repro.sph.initial_conditions import make_turbulence
from repro.sph.neighbors import csr_neighbors
from repro.sph.pair_cache import CsrStepContext
from repro.sph.particles import ParticleSet
from repro.sph.physics import (
    compute_density,
    compute_iad_and_divcurl,
    compute_momentum_energy,
    compute_timestep,
    energy_conservation,
    ideal_gas_eos,
    update_quantities,
    update_smoothing_length,
)
from repro.sph.physics.momentum_energy import balsara_factor


def step_context(ps, box):
    """The production pair path: a CSR search wrapped in the kernel engine."""
    return CsrStepContext(csr_neighbors(ps.pos, ps.h, box), ps.h)


@pytest.fixture(scope="module")
def uniform_gas():
    """A settled uniform periodic gas with its step context."""
    ps, box = make_turbulence(n_side=8, rho0=2.0, sound_speed=1.5, seed=7)
    ctx = step_context(ps, box)
    ps.nc = ctx.csr.neighbor_counts()
    return ps, box, ctx


class TestDensity:
    def test_uniform_gas_density(self, uniform_gas):
        ps, box, ctx = uniform_gas
        compute_density(ps, ctx)
        # Summation density of a jittered lattice stays within a few
        # percent of the true uniform density.
        assert np.median(ps.rho) == pytest.approx(2.0, rel=0.05)
        assert ps.rho.std() / ps.rho.mean() < 0.1

    def test_density_positive(self, uniform_gas):
        ps, box, ctx = uniform_gas
        compute_density(ps, ctx)
        assert np.all(ps.rho > 0)

    def test_isolated_particle_self_density(self):
        ps = ParticleSet(2)
        ps.pos = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        ps.mass[:] = 1.0
        ps.h[:] = 0.5
        box = Box(length=20.0, periodic=False)
        ctx = step_context(ps, box)
        compute_density(ps, ctx)
        expected = 1.0 / (np.pi * 0.5**3)  # m W(0, h)
        assert ps.rho[0] == pytest.approx(expected)

    def test_density_scales_with_mass(self, uniform_gas):
        ps, box, ctx = uniform_gas
        compute_density(ps, ctx)
        rho1 = ps.rho.copy()
        ps.mass = ps.mass * 3.0
        compute_density(ps, ctx)
        assert np.allclose(ps.rho, 3.0 * rho1)
        ps.mass = ps.mass / 3.0
        compute_density(ps, ctx)


class TestEos:
    def test_ideal_gas_relations(self):
        ps = ParticleSet(4)
        ps.rho = np.array([1.0, 2.0, 0.5, 1.5])
        ps.u = np.array([1.0, 0.5, 2.0, 1.0])
        ideal_gas_eos(ps, gamma=5.0 / 3.0)
        assert np.allclose(ps.p, (2.0 / 3.0) * ps.rho * ps.u)
        assert np.allclose(ps.c, np.sqrt((5.0 / 3.0) * (2.0 / 3.0) * ps.u))

    def test_invalid_gamma(self):
        with pytest.raises(SimulationError):
            ideal_gas_eos(ParticleSet(1), gamma=1.0)


class TestIad:
    def test_matrices_symmetric_positive(self, uniform_gas):
        ps, box, ctx = uniform_gas
        compute_density(ps, ctx)
        compute_iad_and_divcurl(ps, ctx)
        assert np.allclose(ps.c_iad, np.transpose(ps.c_iad, (0, 2, 1)), rtol=1e-8)
        # Diagonal entries of the inverse moment matrix are positive.
        diags = np.diagonal(ps.c_iad, axis1=1, axis2=2)
        assert np.all(diags > 0)

    def test_linear_velocity_field_divergence(self):
        """div(A x) = trace(A) recovered by the IAD estimate (interior)."""
        ps, box = make_turbulence(n_side=10, seed=11)
        grad = np.array(
            [[0.3, 0.1, 0.0], [0.0, -0.2, 0.05], [0.0, 0.0, 0.4]]
        )
        # Periodic wrap would break linearity, so evaluate on an open box
        # and check interior particles only.
        open_box = Box(length=1.0, periodic=False)
        ps.vel = ps.pos @ grad.T
        ctx = step_context(ps, open_box)
        ps.nc = ctx.csr.neighbor_counts()
        compute_density(ps, ctx)
        compute_iad_and_divcurl(ps, ctx)
        interior = np.all(np.abs(ps.pos) < 0.25, axis=1)
        measured = np.median(ps.div_v[interior])
        assert measured == pytest.approx(np.trace(grad), rel=0.1)

    def test_rigid_rotation_has_curl_no_divergence(self):
        ps, box = make_turbulence(n_side=10, seed=12)
        omega = np.array([0.0, 0.0, 1.0])
        open_box = Box(length=1.0, periodic=False)
        ps.vel = np.cross(omega, ps.pos)
        ctx = step_context(ps, open_box)
        compute_density(ps, ctx)
        compute_iad_and_divcurl(ps, ctx)
        interior = np.all(np.abs(ps.pos) < 0.25, axis=1)
        assert np.median(np.abs(ps.div_v[interior])) < 0.05
        assert np.median(ps.curl_v[interior]) == pytest.approx(2.0, rel=0.1)


class TestMomentumEnergy:
    def prepare(self, seed=13):
        ps, box = make_turbulence(n_side=8, seed=seed)
        rng = np.random.default_rng(seed)
        ps.vel = rng.normal(0.0, 0.1, size=ps.vel.shape)
        ctx = step_context(ps, box)
        ps.nc = ctx.csr.neighbor_counts()
        compute_density(ps, ctx)
        ideal_gas_eos(ps)
        compute_iad_and_divcurl(ps, ctx)
        compute_momentum_energy(ps, ctx)
        return ps, box, ctx

    def test_momentum_rate_zero(self):
        """Pairwise antisymmetry: sum m a = 0 to round-off."""
        ps, _, _ = self.prepare()
        net = np.sum(ps.mass[:, None] * ps.acc, axis=0)
        scale = np.mean(np.abs(ps.mass[:, None] * ps.acc)) + 1e-300
        assert np.abs(net).max() < 1e-10 * max(scale, 1.0)

    def test_energy_rate_consistent(self):
        """d(E_kin)/dt + d(E_int)/dt = 0 for adiabatic flow."""
        ps, _, _ = self.prepare()
        dekin = np.sum(ps.mass * np.einsum("ia,ia->i", ps.vel, ps.acc))
        deint = np.sum(ps.mass * ps.du)
        scale = abs(dekin) + abs(deint) + 1e-300
        assert abs(dekin + deint) / scale < 0.05

    def test_compression_heats(self):
        """A radially converging flow produces du > 0."""
        ps, box = make_turbulence(n_side=8, seed=14)
        ps.vel = -0.5 * ps.pos  # uniform compression toward origin
        open_box = Box(length=1.0, periodic=False)
        ctx = step_context(ps, open_box)
        compute_density(ps, ctx)
        ideal_gas_eos(ps)
        compute_iad_and_divcurl(ps, ctx)
        compute_momentum_energy(ps, ctx)
        interior = np.all(np.abs(ps.pos) < 0.25, axis=1)
        assert np.median(ps.du[interior]) > 0

    def test_viscosity_off_for_expansion(self):
        """Receding pairs contribute no artificial viscosity heating."""
        ps, box = make_turbulence(n_side=8, seed=15)
        ps.vel = 0.5 * ps.pos  # uniform expansion
        open_box = Box(length=1.0, periodic=False)
        ctx = step_context(ps, open_box)
        compute_density(ps, ctx)
        ideal_gas_eos(ps)
        compute_iad_and_divcurl(ps, ctx)
        compute_momentum_energy(ps, ctx, av_alpha=0.0)
        du_noav = ps.du.copy()
        compute_momentum_energy(ps, ctx, av_alpha=1.0)
        # Pure expansion: AV changes nothing.
        assert np.allclose(ps.du, du_noav, atol=1e-10)

    def test_v_sig_at_least_sound_speed(self):
        ps, _, _ = self.prepare()
        assert np.all(ps.v_sig_max >= ps.c - 1e-12)

    def test_balsara_in_unit_interval(self):
        ps, _, _ = self.prepare()
        bal = balsara_factor(ps)
        assert np.all((bal >= 0) & (bal <= 1))


class TestTimestep:
    def test_requires_momentum_first(self):
        ps = ParticleSet(4)
        with pytest.raises(SimulationError):
            compute_timestep(ps)

    def test_courant_scaling(self):
        ps = ParticleSet(4)
        ps.h[:] = 0.1
        ps.acc[:] = 0.0
        ps.v_sig_max = np.full(4, 2.0)
        dt = compute_timestep(ps, courant=0.2)
        assert dt == pytest.approx(0.2 * 2 * 0.1 / 2.0)

    def test_acceleration_criterion(self):
        ps = ParticleSet(4)
        ps.h[:] = 1.0
        ps.v_sig_max = np.full(4, 1e-6)  # courant criterion huge
        ps.acc[:, 0] = 100.0
        dt = compute_timestep(ps, accel_coeff=0.25)
        assert dt == pytest.approx(0.25 * np.sqrt(1.0 / 100.0))

    def test_growth_cap(self):
        ps = ParticleSet(4)
        ps.h[:] = 1.0
        ps.v_sig_max = np.full(4, 0.001)
        ps.acc[:] = 1e-9
        dt = compute_timestep(ps, dt_prev=0.01)
        assert dt == pytest.approx(0.011)


class TestUpdateQuantities:
    def test_semi_implicit_euler(self):
        ps = ParticleSet(1)
        ps.vel[0] = [1.0, 0.0, 0.0]
        ps.acc[0] = [0.0, 2.0, 0.0]
        ps.u[0] = 1.0
        ps.du[0] = -0.5
        box = Box(length=100.0, periodic=False)
        update_quantities(ps, 0.1, box)
        assert np.allclose(ps.vel[0], [1.0, 0.2, 0.0])
        assert np.allclose(ps.pos[0], [0.1, 0.02, 0.0])
        assert ps.u[0] == pytest.approx(0.95)

    def test_internal_energy_floor(self):
        ps = ParticleSet(1)
        ps.u[0] = 0.01
        ps.du[0] = -10.0
        update_quantities(ps, 1.0, Box(length=10.0, periodic=False))
        assert ps.u[0] > 0

    def test_periodic_wrap(self):
        ps = ParticleSet(1)
        ps.pos[0] = [0.45, 0.0, 0.0]
        ps.vel[0] = [1.0, 0.0, 0.0]
        box = Box(length=1.0, periodic=True)
        update_quantities(ps, 0.2, box)
        assert box.contains(ps.pos).all()
        assert ps.pos[0, 0] == pytest.approx(-0.35)

    def test_zero_dt_rejected(self):
        with pytest.raises(SimulationError):
            update_quantities(ParticleSet(1), 0.0, Box(length=1.0))


class TestSmoothingLength:
    def test_moves_toward_target(self):
        ps = ParticleSet(2)
        ps.h[:] = 1.0
        ps.nc = np.array([800, 12])  # too many / too few neighbours
        update_smoothing_length(ps, n_target=100)
        assert ps.h[0] < 1.0
        assert ps.h[1] > 1.0

    def test_fixed_point_at_target(self):
        ps = ParticleSet(1)
        ps.h[:] = 0.7
        ps.nc = np.array([100])
        update_smoothing_length(ps, n_target=100)
        assert ps.h[0] == pytest.approx(0.7)

    def test_zero_count_grows(self):
        ps = ParticleSet(1)
        ps.h[:] = 0.5
        ps.nc = np.array([0])
        update_smoothing_length(ps, n_target=100)
        assert ps.h[0] > 0.5

    def test_h_max_clamp(self):
        ps = ParticleSet(1)
        ps.h[:] = 0.5
        ps.nc = np.array([1])
        update_smoothing_length(ps, n_target=100, h_max=0.6)
        assert ps.h[0] == 0.6

    def test_invalid_target(self):
        with pytest.raises(SimulationError):
            update_smoothing_length(ParticleSet(1), n_target=0)


class TestConservationTotals:
    def test_totals(self):
        ps = ParticleSet(2)
        ps.mass[:] = 2.0
        ps.vel[0] = [1.0, 0.0, 0.0]
        ps.u[:] = 0.5
        totals = energy_conservation(ps, potential=-3.0)
        assert totals.kinetic == pytest.approx(1.0)
        assert totals.internal == pytest.approx(2.0)
        assert totals.total_energy == pytest.approx(0.0)
        assert totals.momentum[0] == pytest.approx(2.0)
