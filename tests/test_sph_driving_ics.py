"""Tests for turbulence driving and the initial-condition generators."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sph.box import Box
from repro.sph.driving import TurbulenceDriver
from repro.sph.initial_conditions import make_evrard, make_turbulence


class TestTurbulenceDriver:
    @pytest.fixture
    def box(self):
        return Box(length=1.0, periodic=True)

    def test_deterministic_given_seed(self, box):
        a = TurbulenceDriver(box, seed=5)
        b = TurbulenceDriver(box, seed=5)
        for _ in range(3):
            a.step(0.01)
            b.step(0.01)
        pos = np.random.default_rng(0).uniform(-0.5, 0.5, size=(50, 3))
        assert np.allclose(a.acceleration(pos), b.acceleration(pos))

    def test_different_seeds_differ(self, box):
        a = TurbulenceDriver(box, seed=5)
        b = TurbulenceDriver(box, seed=6)
        a.step(0.01)
        b.step(0.01)
        pos = np.random.default_rng(0).uniform(-0.5, 0.5, size=(50, 3))
        assert not np.allclose(a.acceleration(pos), b.acceleration(pos))

    def test_solenoidal_state(self, box):
        """OU amplitudes stay perpendicular to their wavevectors."""
        driver = TurbulenceDriver(box, seed=1)
        driver.step(0.05)
        k_hat = driver.k_vec / np.linalg.norm(driver.k_vec, axis=1, keepdims=True)
        parallel = np.einsum("ma,ma->m", driver.state, k_hat.astype(complex))
        assert np.abs(parallel).max() < 1e-12

    def test_rms_amplitude_normalized(self, box):
        driver = TurbulenceDriver(box, amplitude=2.5, seed=2)
        driver.step(0.05)
        pos = np.random.default_rng(1).uniform(-0.5, 0.5, size=(4000, 3))
        acc = driver.acceleration(pos)
        rms = np.sqrt(np.mean(np.sum(acc**2, axis=1)))
        assert rms == pytest.approx(2.5, rel=0.05)

    def test_field_is_periodic(self, box):
        driver = TurbulenceDriver(box, seed=3)
        driver.step(0.05)
        pos = np.array([[-0.5, 0.1, 0.2]])
        shifted = pos + np.array([[1.0, 0.0, 0.0]])
        assert np.allclose(driver.acceleration(pos), driver.acceleration(shifted))

    def test_driving_shell_bounds(self, box):
        driver = TurbulenceDriver(box, k_min=2, k_max=3, seed=4)
        norms = np.linalg.norm(driver.k_int, axis=1)
        assert np.all(norms >= 2.0 - 1e-12)
        assert np.all(norms <= 3.0 + 1e-12)

    def test_requires_periodic_box(self):
        with pytest.raises(SimulationError):
            TurbulenceDriver(Box(length=1.0, periodic=False))

    def test_invalid_parameters(self, box):
        with pytest.raises(SimulationError):
            TurbulenceDriver(box, amplitude=0.0)
        with pytest.raises(SimulationError):
            TurbulenceDriver(box, k_min=3, k_max=2)
        driver = TurbulenceDriver(box)
        with pytest.raises(SimulationError):
            driver.step(0.0)


def _direct_mode_sum(driver, pos):
    """The driving field as one exponential per (particle, mode): the
    direct evaluation the separable product replaced, frozen as the oracle.
    """
    amp = driver.state * driver.weights[:, None]
    acc = np.real(np.exp(1j * pos @ driver.k_vec.T) @ amp)
    rms = np.sqrt(np.mean(np.sum(acc**2, axis=1))) if len(pos) else 0.0
    if rms > 0:
        acc *= driver.amplitude / max(rms, 1e-12)
    return acc


class TestSeparableModeSum:
    @pytest.mark.parametrize("shell", [(1, 1), (1, 3), (2, 3), (1, 4)])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("length", [1.0, 2.5])
    def test_matches_direct_sum(self, shell, seed, length):
        box = Box(length=length, periodic=True)
        driver = TurbulenceDriver(
            box, amplitude=1.7, k_min=shell[0], k_max=shell[1], seed=seed
        )
        for _ in range(3):
            driver.step(0.05)
        rng = np.random.default_rng(seed)
        pos = np.concatenate(
            [
                rng.uniform(0.0, length, size=(300, 3)),
                # Unwrapped and negative positions: the phase is periodic.
                rng.uniform(-2.0 * length, 3.0 * length, size=(300, 3)),
            ]
        )
        want = _direct_mode_sum(driver, pos)
        got = driver.acceleration(pos)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_empty_positions(self):
        driver = TurbulenceDriver(Box(length=1.0, periodic=True), seed=2)
        driver.step(0.05)
        acc = driver.acceleration(np.empty((0, 3)))
        assert acc.shape == (0, 3)


class TestTurbulenceIC:
    def test_particle_count(self):
        ps, box = make_turbulence(n_side=6)
        assert ps.n == 216
        assert box.periodic

    def test_total_mass_matches_density(self):
        ps, box = make_turbulence(n_side=6, rho0=3.0, box_length=2.0)
        assert ps.total_mass() == pytest.approx(3.0 * 8.0)

    def test_positions_inside_box(self):
        ps, box = make_turbulence(n_side=6)
        assert box.contains(ps.pos).all()

    def test_at_rest(self):
        ps, _ = make_turbulence(n_side=6)
        assert np.all(ps.vel == 0)

    def test_sound_speed_via_eos(self):
        from repro.sph.physics import ideal_gas_eos

        ps, _ = make_turbulence(n_side=6, sound_speed=2.0)
        ideal_gas_eos(ps)
        assert np.allclose(ps.c, 2.0)

    def test_deterministic(self):
        a, _ = make_turbulence(n_side=5, seed=9)
        b, _ = make_turbulence(n_side=5, seed=9)
        assert np.allclose(a.pos, b.pos)

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            make_turbulence(n_side=1)
        with pytest.raises(SimulationError):
            make_turbulence(n_side=4, rho0=-1.0)


class TestEvrardIC:
    def test_total_mass(self):
        ps, _ = make_evrard(n=2000, total_mass=1.0)
        assert ps.total_mass() == pytest.approx(1.0)

    def test_all_inside_sphere(self):
        ps, _ = make_evrard(n=2000, radius=1.0)
        r = np.linalg.norm(ps.pos, axis=1)
        assert r.max() <= 1.0 + 1e-12

    def test_density_profile_one_over_r(self):
        """Enclosed mass grows like r^2 (rho ~ 1/r)."""
        ps, _ = make_evrard(n=20000, seed=3)
        r = np.sort(np.linalg.norm(ps.pos, axis=1))
        m_enclosed = np.arange(1, len(r) + 1) / len(r)
        for frac in (0.25, 0.5, 0.75):
            idx = int(frac * len(r))
            assert m_enclosed[idx] == pytest.approx(r[idx] ** 2, rel=0.05)

    def test_cold_start(self):
        ps, _ = make_evrard(n=500, u0=0.05)
        assert np.allclose(ps.u, 0.05)
        assert np.all(ps.vel == 0)

    def test_open_box(self):
        _, box = make_evrard(n=500)
        assert not box.periodic
        assert box.length >= 4.0

    def test_smoothing_length_grows_outward(self):
        """rho ~ 1/r means h ~ r^(1/3): outer particles have larger h."""
        ps, _ = make_evrard(n=5000, seed=4)
        r = np.linalg.norm(ps.pos, axis=1)
        inner = ps.h[r < 0.3].mean()
        outer = ps.h[r > 0.7].mean()
        assert outer > inner

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            make_evrard(n=4)
        with pytest.raises(SimulationError):
            make_evrard(n=100, u0=-0.1)
