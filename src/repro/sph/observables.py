"""Turbulence observables: spectra, Mach number, density statistics.

The paper's main workload is driven subsonic turbulence; these are the
standard physical diagnostics of such runs — the quantities an
astrophysicist checks to know the driving is doing its job:

* RMS **Mach number** (subsonic means < 1);
* **velocity power spectrum** E(k) from a gridded velocity field (a
  driven cascade shows power concentrated at the driving scale, decaying
  toward high k);
* **density PDF** statistics (compressible turbulence broadens the
  log-density distribution; subsonic driving keeps it narrow).

All estimators are deposit-to-grid + FFT, vectorized, deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sph.box import Box
from repro.sph.particles import ParticleSet


def rms_mach_number(ps: ParticleSet) -> float:
    """Mass-weighted RMS Mach number (requires ``ps.c`` from the EOS)."""
    if np.any(ps.c <= 0):
        raise SimulationError("sound speeds must be positive (run the EOS)")
    v2 = np.sum(ps.vel**2, axis=1)
    mach2 = np.sum(ps.mass * v2 / ps.c**2) / np.sum(ps.mass)
    return float(np.sqrt(mach2))


def deposit_to_grid(
    ps: ParticleSet, box: Box, n_grid: int, values: np.ndarray
) -> np.ndarray:
    """Mass-weighted cloud-in-cell (CIC) deposit of a per-particle value.

    Trilinear weights over the 8 surrounding cells (periodic wrap);
    returns ``sum(w m value) / sum(w m)`` per cell (zero where no mass
    lands).  CIC is the standard deposit for spectra: it suppresses the
    empty-cell shot noise a nearest-grid-point assignment aliases into
    high wavenumbers.
    """
    if not box.periodic:
        raise SimulationError("grid deposit assumes a periodic box")
    if n_grid < 2:
        raise SimulationError("need at least a 2^3 grid")
    # Position in grid units, cell centers at integer + 0.5.
    pos = (ps.pos - box.lo) / box.length * n_grid - 0.5
    base = np.floor(pos).astype(np.int64)
    frac = pos - base

    weights = np.zeros(n_grid**3)
    weighted = np.zeros(n_grid**3)
    for dx in (0, 1):
        wx = frac[:, 0] if dx else 1.0 - frac[:, 0]
        ix = (base[:, 0] + dx) % n_grid
        for dy in (0, 1):
            wy = frac[:, 1] if dy else 1.0 - frac[:, 1]
            iy = (base[:, 1] + dy) % n_grid
            for dz in (0, 1):
                wz = frac[:, 2] if dz else 1.0 - frac[:, 2]
                iz = (base[:, 2] + dz) % n_grid
                w = ps.mass * wx * wy * wz
                flat = (ix * n_grid + iy) * n_grid + iz
                weights += np.bincount(flat, weights=w, minlength=n_grid**3)
                weighted += np.bincount(
                    flat, weights=w * values, minlength=n_grid**3
                )
    out = np.zeros(n_grid**3)
    occupied = weights > 0
    out[occupied] = weighted[occupied] / weights[occupied]
    return out.reshape(n_grid, n_grid, n_grid)


def velocity_power_spectrum(
    ps: ParticleSet, box: Box, n_grid: int = 32
) -> tuple[np.ndarray, np.ndarray]:
    """Shell-averaged kinetic-energy spectrum ``E(k)``.

    Returns ``(k, E)`` with k in units of the fundamental ``2 pi / L``
    (i.e. integer wavenumbers 1 .. n_grid/2 - 1).
    """
    components = []
    for axis in range(3):
        grid = deposit_to_grid(ps, box, n_grid, ps.vel[:, axis])
        components.append(np.fft.fftn(grid) / n_grid**3)
    power = sum(np.abs(c) ** 2 for c in components)

    freqs = np.fft.fftfreq(n_grid) * n_grid  # integer wavenumbers
    kx, ky, kz = np.meshgrid(freqs, freqs, freqs, indexing="ij")
    k_mag = np.sqrt(kx**2 + ky**2 + kz**2)

    k_max = n_grid // 2
    k_bins = np.arange(0.5, k_max, 1.0)
    k_centers = np.arange(1, k_max)
    shell = np.digitize(k_mag.ravel(), k_bins)
    spectrum = np.zeros(len(k_centers))
    flat_power = power.ravel()
    for i in range(1, len(k_bins)):
        mask = shell == i
        spectrum[i - 1] = float(np.sum(flat_power[mask]))
    return k_centers.astype(np.float64), spectrum


def density_pdf_stats(ps: ParticleSet) -> dict[str, float]:
    """Moments of the log-density PDF (s = ln(rho / <rho>))."""
    if np.any(ps.rho <= 0):
        raise SimulationError("densities must be positive")
    mean_rho = float(np.sum(ps.mass * ps.rho) / np.sum(ps.mass))
    s = np.log(ps.rho / mean_rho)
    sigma = float(np.std(s))
    skew = float(np.mean((s - s.mean()) ** 3) / sigma**3) if sigma > 0 else 0.0
    return {"mean_rho": mean_rho, "sigma_s": sigma, "skew_s": skew}
