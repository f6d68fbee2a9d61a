"""Tests for the grad-h (Omega) correction."""

import numpy as np

from repro.sph import Simulation
from repro.sph.initial_conditions import make_evrard, make_turbulence
from repro.sph.kernels import CubicSplineKernel
from repro.sph.physics import (
    compute_density,
    compute_iad_and_divcurl,
    compute_momentum_energy,
    ideal_gas_eos,
)
from repro.sph.physics.grad_h import compute_omega, kernel_dh
from repro.sph.propagator import Propagator
from tests.test_sph_physics import step_context

class TestKernelDh:
    def test_matches_finite_difference(self):
        r = np.linspace(0.05, 1.3, 100)
        h = np.full_like(r, 0.7)
        eps = 1e-6
        numeric = (
            CubicSplineKernel.value(r, h + eps)
            - CubicSplineKernel.value(r, h - eps)
        ) / (2 * eps)
        analytic = kernel_dh(r, h)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_zero_beyond_support(self):
        assert kernel_dh(np.array([3.0]), np.array([1.0]))[0] == 0.0

    def test_negative_at_origin(self):
        """Growing h dilutes the central value: dW/dh < 0 at r = 0."""
        assert kernel_dh(np.array([0.0]), np.array([1.0]))[0] < 0


class TestOmega:
    def test_near_unity_for_uniform_gas(self):
        ps, box = make_turbulence(n_side=8, seed=31)
        ctx = step_context(ps, box)
        compute_density(ps, ctx)
        omega = compute_omega(ps, ctx)
        assert np.median(np.abs(omega - 1.0)) < 0.15

    def test_deviates_in_density_gradient(self):
        ps, box = make_evrard(n=3000, seed=32)
        ctx = step_context(ps, box)
        compute_density(ps, ctx)
        omega = compute_omega(ps, ctx)
        # The steep rho ~ 1/r profile makes Omega spread visibly.
        assert omega.std() > 0.01

    def test_clamped(self):
        ps, box = make_turbulence(n_side=6, seed=33)
        ps.h *= 3.0  # pathological: huge supports
        ctx = step_context(ps, box)
        compute_density(ps, ctx)
        omega = compute_omega(ps, ctx)
        assert np.all(omega >= 0.4)
        assert np.all(omega <= 2.5)


class TestGradHInPropagator:
    def test_momentum_still_conserved(self):
        ps, box = make_turbulence(n_side=8, seed=34)
        rng = np.random.default_rng(34)
        ps.vel = rng.normal(0.0, 0.05, size=ps.vel.shape)
        p0 = ps.momentum().copy()
        sim = Simulation(ps, Propagator(box, use_grad_h=True))
        sim.run(5)
        assert np.abs(ps.momentum() - p0).max() < 1e-12

    def test_changes_dynamics_in_nonuniform_gas(self):
        def run(use_grad_h):
            ps, box = make_evrard(n=600, seed=35)
            sim = Simulation(
                ps, Propagator(box, gravity=True, use_grad_h=use_grad_h)
            )
            sim.run(5)
            return sim.ps.u.copy()

        assert not np.allclose(run(False), run(True))

    def test_energy_rate_cancellation_exact(self):
        """dE_kin/dt + dE_int/dt == 0 to round-off also with Omega."""
        ps, box = make_turbulence(n_side=8, seed=36)
        rng = np.random.default_rng(36)
        ps.vel = rng.normal(0.0, 0.1, size=ps.vel.shape)
        ctx = step_context(ps, box)
        compute_density(ps, ctx)
        ideal_gas_eos(ps)
        compute_iad_and_divcurl(ps, ctx)
        omega = compute_omega(ps, ctx)
        compute_momentum_energy(ps, ctx, omega=omega)
        dekin = np.sum(ps.mass * np.einsum("ia,ia->i", ps.vel, ps.acc))
        deint = np.sum(ps.mass * ps.du)
        scale = abs(dekin) + abs(deint) + 1e-300
        assert abs(dekin + deint) / scale < 1e-12
