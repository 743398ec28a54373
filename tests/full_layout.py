"""Reference full complex FFT layout for the tests, lattice sampling, and
reference formulas for the norm sums.

Coefficients of all ``N^dim`` wavevectors, computed by ``numpy.fft.fftn``
with the quadrature weight and the lattice phase ``(-1)^(j_1+...+j_dim)``
on both sides of a round trip, so that they approximate the continuum
integrals.  The package itself keeps only the half spectrum;
``sigmaevo.grid.full_from_half`` maps it onto this layout.

``parseval_reference`` and ``l1_reference`` are the plain ``np.sum``
formulas of the half-spectrum Parseval sum and the ``L^1`` norm, written
without the package's code: its norm helpers must keep their bits.
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


def parseval_reference(sq, lead=0):
    """``2 sum - sum(j = 0 plane) - sum(j = N/2 plane)`` of half-spectrum
    squares over all but the first ``lead`` axes."""
    axes = tuple(range(lead, sq.ndim))
    return (2 * np.sum(sq, axis=axes) - np.sum(sq[..., 0], axis=axes[:-1])
            - np.sum(sq[..., -1], axis=axes[:-1]))


def l1_reference(grid, values):
    """``sum |f| (L/N)^n`` of one field of samples."""
    return float(np.sum(np.abs(values)) * grid.cell_volume)
