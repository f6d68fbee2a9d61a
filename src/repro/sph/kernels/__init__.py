"""SPH smoothing kernels."""

from repro.sph.kernels.cubic_spline import CubicSplineKernel

__all__ = ["CubicSplineKernel"]
