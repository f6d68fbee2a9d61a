"""Tests for the turbulence observables (Mach, spectra, density PDF)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sph import Simulation
from repro.sph.box import Box
from repro.sph.driving import TurbulenceDriver
from repro.sph.initial_conditions import make_turbulence
from repro.sph.observables import (
    density_pdf_stats,
    deposit_to_grid,
    rms_mach_number,
    velocity_power_spectrum,
)
from repro.sph.physics import ideal_gas_eos
from repro.sph.propagator import Propagator


@pytest.fixture(scope="module")
def driven_state():
    ps, box = make_turbulence(n_side=10, sound_speed=1.0, seed=51)
    driver = TurbulenceDriver(box, amplitude=2.5, seed=51)
    sim = Simulation(ps, Propagator(box, driver=driver))
    sim.run(12)
    ideal_gas_eos(ps)
    return ps, box


class TestMachNumber:
    def test_at_rest_is_zero(self):
        ps, _ = make_turbulence(n_side=5)
        ideal_gas_eos(ps)
        assert rms_mach_number(ps) == 0.0

    def test_uniform_flow(self):
        ps, _ = make_turbulence(n_side=5, sound_speed=2.0)
        ideal_gas_eos(ps)
        ps.vel[:, 0] = 1.0
        assert rms_mach_number(ps) == pytest.approx(0.5, rel=1e-6)

    def test_driven_run_is_subsonic(self, driven_state):
        ps, _ = driven_state
        mach = rms_mach_number(ps)
        assert 0.0 < mach < 1.0  # "Subsonic Turbulence"

    def test_requires_sound_speed(self):
        ps, _ = make_turbulence(n_side=4)
        ps.c[:] = 0.0
        with pytest.raises(SimulationError):
            rms_mach_number(ps)


class TestGridDeposit:
    def test_uniform_value_deposits_uniformly(self):
        ps, box = make_turbulence(n_side=8, seed=52)
        grid = deposit_to_grid(ps, box, 4, np.full(ps.n, 7.0))
        occupied = grid != 0
        assert np.allclose(grid[occupied], 7.0)

    def test_requires_periodic_box(self):
        ps, _ = make_turbulence(n_side=4)
        with pytest.raises(SimulationError):
            deposit_to_grid(
                ps, Box(length=1.0, periodic=False), 4, ps.u
            )

    def test_grid_too_small_rejected(self):
        ps, box = make_turbulence(n_side=4)
        with pytest.raises(SimulationError):
            deposit_to_grid(ps, box, 1, ps.u)


class TestPowerSpectrum:
    def test_single_mode_peaks_at_its_wavenumber(self):
        ps, box = make_turbulence(n_side=12, seed=53)
        k_in = 3
        ps.vel[:, 1] = np.sin(2 * np.pi * k_in * (ps.pos[:, 0] + 0.5))
        k, spectrum = velocity_power_spectrum(ps, box, n_grid=16)
        assert k[np.argmax(spectrum)] == pytest.approx(k_in)

    def test_rest_gas_has_zero_spectrum(self):
        ps, box = make_turbulence(n_side=8, seed=54)
        k, spectrum = velocity_power_spectrum(ps, box, n_grid=8)
        assert np.allclose(spectrum, 0.0)

    def test_driven_run_energy_at_driving_scale(self, driven_state):
        ps, box = driven_state
        k, spectrum = velocity_power_spectrum(ps, box, n_grid=16)
        assert spectrum.sum() > 0
        # The OU driver stirs k in [1, 3]; energy concentrates there.
        assert spectrum[k <= 3.0].sum() > 0.5 * spectrum.sum()

    def test_wavenumbers_are_integers_from_one(self):
        ps, box = make_turbulence(n_side=6)
        k, spectrum = velocity_power_spectrum(ps, box, n_grid=12)
        assert k[0] == 1.0
        assert len(k) == len(spectrum) == 5


class TestDensityPdf:
    def test_uniform_gas_narrow(self):
        ps, _ = make_turbulence(n_side=8, seed=55)
        stats = density_pdf_stats(ps)
        assert stats["mean_rho"] == pytest.approx(1.0, rel=0.05)
        assert stats["sigma_s"] < 0.05  # still the (unrelaxed) lattice value

    def test_subsonic_run_stays_narrow(self, driven_state):
        ps, _ = driven_state
        stats = density_pdf_stats(ps)
        # Subsonic turbulence: weak density contrast (sigma_s << 1).
        assert stats["sigma_s"] < 0.5

    def test_invalid_density_rejected(self):
        ps, _ = make_turbulence(n_side=4)
        ps.rho[:] = 0.0
        with pytest.raises(SimulationError):
            density_pdf_stats(ps)
