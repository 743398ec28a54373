"""Initial-velocity profiles for simulation runs."""

from __future__ import annotations

import numpy as np

from .grid import Grid, RealField, _forward_half, _half_axes, _inverse_half

__all__ = ["PROFILES", "make_profile"]

PROFILES = ("gaussian", "bump", "noise_bandlimited", "spectral_tail")

# Shift used by the mean-zero (dipole) variant, in units of the profile width.
DIPOLE_SHIFT = 1.0


def _r2(grid: Grid) -> np.ndarray:
    """``|x|^2`` on the lattice, summed from one broadcast axis at a time."""
    return sum(x * x for x in np.meshgrid(*grid.coords, indexing="ij",
                                          sparse=True))


def _gaussian(grid: Grid) -> np.ndarray:
    return np.exp(-_r2(grid) / 2.0)


def _bump(grid: Grid) -> np.ndarray:
    r2 = _r2(grid)
    out = np.zeros(grid.shape)
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


def _noise_bandlimited(grid: Grid, seed: int) -> np.ndarray:
    # The mesh of |j| is freed before the inverse transform, and the
    # field is divided by the peak of |field|, max(max, -min), in place
    # (by 1.0, which changes no bit, when the field is zero).
    n = grid.spec.points_per_axis
    rng = np.random.default_rng(seed)
    coeffs = _forward_half(grid, rng.standard_normal(grid.shape))
    j = grid.indices[0]
    coeffs[np.sqrt(sum(_half_axes(j * j, grid.dim))) > n / 8.0] = 0.0
    field = _inverse_half(grid, coeffs)
    peak = max(field.max(), -field.min())
    return np.divide(field, peak if peak > 0 else 1.0, out=field)


def _spectral_tail(grid: Grid, n: int, m: float) -> np.ndarray:
    # Data saturating the L^m estimates: transform ~ |xi|^(-n(1-1/m)) at the
    # origin (floored at the first nonzero mode), with a smooth taper; the
    # lattice phase centres it at x = 0.
    gam = n * (1.0 - 1.0 / m)
    xi_floor = 2.0 * np.pi / grid.box_length
    xi = grid.xi_mag
    q = np.maximum(xi, xi_floor)
    field = _inverse_half(grid,
                          q ** (-gam) * np.exp(-xi ** 2 / 2.0) * grid.phase)
    l2 = np.sqrt(np.sum(field * field) * grid.cell_volume)
    return field / l2 if l2 > 0 else field


def _dipole(grid: Grid, values: np.ndarray) -> np.ndarray:
    # Difference of copies shifted by +-DIPOLE_SHIFT along the first axis;
    # the transform then vanishes linearly at xi = 0 (true mean-zero data,
    # not just a zeroed DC mode).
    coeffs = _forward_half(grid, values)
    rows = coeffs.shape[0]  # N, or N/2+1 when the first axis is the last
    sine = np.sin(grid.wavenumbers[0][:rows] * DIPOLE_SHIFT)
    # The j = -N/2 plane is its own mirror image (there is no +N/2 partner),
    # so an odd factor there would not describe a real field; it is zeroed.
    sine[grid.spec.points_per_axis // 2] = 0.0
    shape = [1] * grid.dim
    shape[0] = rows
    return _inverse_half(grid, coeffs * (-2j * sine).reshape(shape))


def make_profile(grid: Grid, profile: str, amplitude: float,
                 seed: int = 0, mean_zero: bool = False,
                 n: int | None = None, m: float | None = None) -> RealField:
    """Build an initial-velocity field on ``grid``.

    ``gaussian`` and ``bump`` peak at ``amplitude``;
    ``noise_bandlimited`` is seeded noise restricted to modes
    ``|j| <= N/8`` with unit peak; ``spectral_tail`` has unit L2 norm
    and a transform tailored to the integrability exponent ``m``.
    """
    if profile == "gaussian":
        values = _gaussian(grid)
    elif profile == "bump":
        values = _bump(grid)
    elif profile == "noise_bandlimited":
        values = _noise_bandlimited(grid, seed)
    elif profile == "spectral_tail":
        if n is None or m is None:
            raise ValueError("spectral_tail profile needs n and m")
        values = _spectral_tail(grid, n, m)
    else:
        raise ValueError(f"unknown data profile '{profile}'")
    if mean_zero:
        values = _dipole(grid, values)
    # every profile is a fresh array, scaled in place
    return RealField(grid, np.multiply(values, amplitude, out=values))
