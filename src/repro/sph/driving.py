"""Stochastic turbulence driving (the ``TurbulenceDriving`` function).

The subsonic-turbulence test is driven the way SPH-EXA drives it
(following Federrath et al.): an Ornstein-Uhlenbeck process evolves
complex amplitudes on a shell of low-wavenumber Fourier modes; the
acceleration field is the real part of the mode sum, projected onto its
solenoidal (divergence-free) component so driving stirs without
compressing.

Everything is deterministic given the seed.  The mode sum is separable:
the driven wavevectors are integer vectors times ``2 pi / L``, so
``exp(i k.x) = Ex**nx * Ey**ny * Ez**nz`` with ``Ea = exp(2 pi i x_a / L)``.
Each particle takes 3 complex exponentials; per-axis power tables for
``p = -k_max..k_max`` follow by repeated multiplication (``|Ea| = 1``, so
a negative power is a conjugate), and each mode's phase is the product
of three table lookups.  That is the same complex number as the direct
``exp(i k.x)`` up to a few ulps of round-off (the tests keep the direct
sum as the oracle at 1e-12 of the largest acceleration), for 3
exponentials per particle instead of one per (particle, mode).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sph.box import Box


class TurbulenceDriver:
    """Ornstein-Uhlenbeck solenoidal driving in a periodic box.

    Parameters
    ----------
    box:
        Periodic simulation box.
    amplitude:
        RMS target of the driving acceleration.
    correlation_time:
        OU autocorrelation time (in code units).
    k_min, k_max:
        Driven wavenumber shell in units of ``2 pi / L``.
    seed:
        RNG seed; two drivers with equal seeds produce identical forcing.
    """

    def __init__(
        self,
        box: Box,
        amplitude: float = 1.0,
        correlation_time: float = 0.5,
        k_min: int = 1,
        k_max: int = 3,
        seed: int = 0,
    ) -> None:
        if not box.periodic:
            raise SimulationError("turbulence driving needs a periodic box")
        if amplitude <= 0 or correlation_time <= 0:
            raise SimulationError("driver amplitude and time must be positive")
        if not 1 <= k_min <= k_max:
            raise SimulationError("need 1 <= k_min <= k_max")
        self.box = box
        self.amplitude = float(amplitude)
        self.correlation_time = float(correlation_time)
        self._rng = np.random.default_rng(seed)

        # Integer mode vectors on the driven shell (half space; the real
        # part of the mode sum covers the conjugates).
        modes = []
        weights = []
        for nx in range(0, k_max + 1):
            for ny in range(-k_max, k_max + 1):
                for nz in range(-k_max, k_max + 1):
                    if nx == 0 and (ny < 0 or (ny == 0 and nz <= 0)):
                        continue
                    k2 = nx * nx + ny * ny + nz * nz
                    if not k_min**2 <= k2 <= k_max**2:
                        continue
                    modes.append((nx, ny, nz))
                    # Parabolic spectrum peaked mid-shell.
                    knorm = np.sqrt(k2)
                    weights.append(
                        max(1e-3, 1.0 - ((knorm - 2.0) / max(k_max - 1, 1)) ** 2)
                    )
        if not modes:
            raise SimulationError("empty driving shell")
        self.k_int = np.array(modes, dtype=np.float64)
        self.k_vec = 2.0 * np.pi / box.length * self.k_int
        self.weights = np.array(weights) / np.sqrt(np.sum(weights))
        self.n_modes = len(modes)
        # Each mode's row in the per-axis power tables (power p sits at
        # row p + k_max).
        self._k_max = k_max
        self._table_rows = self.k_int.astype(np.intp).T + k_max  # (3, modes)
        # OU state: complex amplitude per mode per component.
        self.state = np.zeros((self.n_modes, 3), dtype=np.complex128)

    def _solenoidal_project(self, f: np.ndarray) -> np.ndarray:
        """Remove the component of each mode amplitude parallel to k."""
        k_hat = self.k_vec / np.linalg.norm(self.k_vec, axis=1, keepdims=True)
        parallel = np.einsum("ma,ma->m", f, k_hat.astype(np.complex128))
        return f - parallel[:, None] * k_hat

    def step(self, dt: float) -> None:
        """Advance the OU process by ``dt``."""
        if dt <= 0:
            raise SimulationError("driver step needs positive dt")
        decay = np.exp(-dt / self.correlation_time)
        kick = np.sqrt(1.0 - decay**2)
        noise = self._rng.normal(size=(self.n_modes, 3, 2))
        complex_noise = (noise[..., 0] + 1j * noise[..., 1]) / np.sqrt(2.0)
        self.state = decay * self.state + kick * complex_noise
        self.state = self._solenoidal_project(self.state)

    def acceleration(self, pos: np.ndarray) -> np.ndarray:
        """Driving acceleration at the given positions."""
        amp = self.state * self.weights[:, None]  # (modes, 3)
        base = np.exp((2j * np.pi / self.box.length) * pos.T)  # (3, n)
        # exp(i k.x) per (mode, particle): whole-row gathers and products.
        rows = self._table_rows
        phases = _powers(base[0], self._k_max)[rows[0]]
        phases *= _powers(base[1], self._k_max)[rows[1]]
        phases *= _powers(base[2], self._k_max)[rows[2]]
        acc = np.real(phases.T @ amp)  # (n, 3)
        rms = np.sqrt(np.mean(np.sum(acc**2, axis=1))) if len(pos) else 0.0
        if rms > 0:
            acc *= self.amplitude / max(rms, 1e-12)
        return acc


def _powers(e: np.ndarray, p_max: int) -> np.ndarray:
    """``e**p`` for ``p = -p_max..p_max`` of unit-modulus ``e``, one row each.

    Row ``p + p_max`` holds power ``p``: positive powers by repeated
    multiplication, negative ones as their conjugates.
    """
    table = np.empty((2 * p_max + 1, len(e)), dtype=np.complex128)
    table[p_max] = 1.0
    for p in range(1, p_max + 1):
        np.multiply(table[p_max + p - 1], e, out=table[p_max + p])
    table[:p_max] = np.conj(table[: p_max : -1])
    return table
