"""Reference full complex FFT layout for the tests, and lattice sampling.

Coefficients of all ``N^dim`` wavevectors, computed by ``numpy.fft.fftn``
with the quadrature weight and the lattice phase ``(-1)^(j_1+...+j_dim)``
on both sides of a round trip, so that they approximate the continuum
integrals.  The package itself keeps only the half spectrum;
``sigmaevo.grid.full_from_half`` maps it onto this layout.
"""

import numpy as np

from sigmaevo.grid import RealField


def full_phase(grid):
    """``(-1)^(j_1+...+j_dim)`` on the full layout."""
    jsum = sum(np.meshgrid(*grid.indices, indexing="ij"))
    return np.where(jsum % 2 == 0, 1.0, -1.0)


def full_xi_mag(grid):
    """``|xi|`` on the full layout."""
    mags = np.meshgrid(*grid.wavenumbers, indexing="ij")
    return np.sqrt(sum(m * m for m in mags))


def full_forward(grid, values):
    return np.fft.fftn(values) * (full_phase(grid) * grid.cell_volume)


def full_inverse(grid, coeffs):
    """Real samples of a full-layout spectrum (imaginary residue dropped)."""
    return np.fft.ifftn(coeffs * full_phase(grid)).real / grid.cell_volume


def field_from_function(grid, fn):
    """Sample ``fn(x_1, ..., x_dim)`` on the lattice."""
    return RealField(grid, np.asarray(fn(*grid.meshgrid()), dtype=np.float64))
