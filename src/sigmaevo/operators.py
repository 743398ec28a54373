"""Fourier-multiplier operators, the pointwise power, discrete norms, and
a quadrature oracle.

The model's fractional Laplacian has the symbol ``|xi|^(2*sigma)``,
which the propagator turns into per-mode kernels.  Its smoothing
counterpart, the normalized Riesz
potential of order ``alpha``, carries the symbol ``|xi|^(-alpha)``; in
physical space it is convolution against ``c(n, alpha) |x - y|^(alpha - n)``
with the Gamma-function normalization constant that makes the symbol
come out exactly as ``|xi|^(-alpha)``.

On a periodic box the symbol ``|xi|^(-alpha)`` is singular at the zero
mode; the zero-mode value is defined to be 0, i.e. the mean of the input
is projected out before smoothing.  ``riesz_oracle`` provides an
independent direct-quadrature evaluation of the convolution for
cross-validation.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import (RealField, _QUIET, _forward_half, _half_l2_rows,
                   _inverse_half, _lm_norm)

__all__ = [
    "riesz_multiplier",
    "riesz_potential",
    "riesz_constant",
    "riesz_oracle",
    "lebesgue_norm",
    "sobolev_seminorm",
]

# Brute-force guard for the direct-quadrature oracle.
ORACLE_MAX_POINTS = 2 ** 16
# Floor applied to |u| before ``np.power``, so that |0|^p underflows
# back to 0 instead of tripping log(0).
ABS_FLOOR = 1e-300
# Integer powers p in [2, INT_POWER_MAX] are formed by multiplication.
INT_POWER_MAX = 8


def riesz_multiplier(xi_mag: np.ndarray, alpha: float) -> np.ndarray:
    """``|xi|^(-alpha)`` on a ``|xi|`` table whose first entry is the zero
    mode, where the value is 0 (the mean is projected out)."""
    with np.errstate(divide="ignore"):
        vals = xi_mag ** (-alpha)
    vals[(0,) * vals.ndim] = 0.0
    return vals


def riesz_potential(f: RealField, alpha: float) -> RealField:
    """Smooth ``f`` by the multiplier ``|xi|^(-alpha)``, zero mode dropped."""
    grid = f.grid
    if not 0.0 < alpha < grid.dim:
        raise ValueError(f"alpha must lie in (0, {grid.dim}); got {alpha}")
    coeffs = _forward_half(grid, f.values)
    coeffs *= riesz_multiplier(grid.xi_mag, alpha)
    return RealField(grid, _inverse_half(grid, coeffs))


def riesz_constant(n: int, alpha: float) -> float:
    """Normalization making the convolution kernel's symbol ``|xi|^(-alpha)``."""
    return (math.gamma((n - alpha) / 2.0)
            / (math.pi ** (n / 2.0) * 2.0 ** alpha * math.gamma(alpha / 2.0)))


def _self_cell_integral(dim: int, alpha: float, h: float) -> float:
    # Integral of |z|^(alpha - dim) over one grid cell centered at the origin.
    if dim == 1:
        return 2.0 * (h / 2.0) ** alpha / alpha
    # Equal-volume ball approximation of the square/cube cell.
    if dim == 2:
        rho = h / np.sqrt(np.pi)
        return 2.0 * np.pi * rho ** alpha / alpha
    rho = h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
    return 4.0 * np.pi * rho ** alpha / alpha


def riesz_oracle(f: RealField, alpha: float) -> RealField:
    """Direct-quadrature evaluation of the smoothing convolution.

    Sums ``c(n, alpha) * f(y) |y - x|^(alpha - n)`` over all lattice
    cells with weight ``(L/N)^n``, skipping the singular self-cell and
    adding its analytic flat-integrand correction.  Quadratic cost; the
    grid is capped at ``2^16`` total points.
    """
    grid = f.grid
    dim = grid.dim
    if not 0.0 < alpha < dim:
        raise ValueError(f"alpha must lie in (0, {dim}); got {alpha}")
    npts = f.values.size
    if npts > ORACLE_MAX_POINTS:
        raise ValueError(
            f"grid has {npts} points; oracle is capped at {ORACLE_MAX_POINTS}")

    mesh = grid.meshgrid()
    pts = np.stack([m.ravel() for m in mesh], axis=1)  # (M, dim)
    vals = f.values.ravel()
    h = grid.box_length / grid.spec.points_per_axis
    weight = grid.cell_volume
    c = riesz_constant(dim, alpha)
    expo = alpha - dim

    out = np.empty(npts)
    block = max(1, int(2 ** 24 // max(npts, 1)))
    for start in range(0, npts, block):
        stop = min(start + block, npts)
        diff = pts[start:stop, None, :] - pts[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        with np.errstate(divide="ignore"):
            kern = dist ** expo
        idx = np.arange(start, stop)
        kern[idx - start, idx] = 0.0  # singular self-cell handled below
        out[start:stop] = kern @ vals
    out *= c * weight
    out += c * vals * _self_cell_integral(dim, alpha, h)
    return RealField(grid, out.reshape(grid.shape))


def _power_bits(p: float) -> str | None:
    """The binary digits after the leading one of an integer ``p`` in
    ``[2, INT_POWER_MAX]``, or None for a ``p`` raised by ``np.power``."""
    if p == int(p) and 2 <= p <= INT_POWER_MAX:
        return bin(int(p))[3:]
    return None


def _scalar_power(x: float, bits: str) -> float:
    """``_floored_power``'s products for an integer power, on one sample.

    The products round monotonically, so for the maximum ``x`` of an
    array of samples ``>= 0`` this is bitwise the maximum of the
    array's power.  Python floats overflow to ``inf`` silently.
    """
    base = x
    for bit in bits:
        x *= x
        if bit == "1":
            x *= base
    return x


@_QUIET  # overflow is not an error here; it surfaces as a blow-up signal
def _floored_power(a: np.ndarray, p: float, scratch: np.ndarray
                   ) -> np.ndarray:
    """``a <- a ** p`` in place, for samples ``a >= 0``.

    An integer ``p`` in ``[2, INT_POWER_MAX]`` is raised by left-to-right
    binary powering: a few multiplications instead of one libm ``pow`` per
    sample, within ``(p - 1) eps`` relative of it.  The base stays in
    ``a``: the running power is formed in ``scratch`` (a float array of
    ``a``'s shape) up to the last ``'1'`` bit, whose product with the
    base goes into ``a``, and the squares after it are taken in ``a``.
    No pass copies the base, and the products, so the bits, are those of
    powering in place from a copy of it.  A base below ``ABS_FLOOR``
    gives ``+0`` there, since its square underflows.  Other ``p`` go
    through ``np.power`` on ``max(a, ABS_FLOOR)``.
    """
    bits = _power_bits(p)
    if bits is not None:
        head, one, tail = bits.rpartition("1")
        if one:
            np.multiply(a, a, out=scratch)
            for bit in head:
                if bit == "1":
                    scratch *= a
                scratch *= scratch
            a *= scratch
        for _ in tail:
            a *= a
    else:
        np.maximum(a, ABS_FLOOR, out=a)
        np.power(a, p, out=a)
    return a


def lebesgue_norm(f: RealField, r: float) -> float:
    """Discrete ``L^r`` norm ``(sum |f|^r (L/N)^n)^(1/r)``, ``r >= 1``."""
    if r < 1:
        raise ValueError(f"r must be >= 1; got {r}")
    return _lm_norm(f.grid, f.values, r)


def sobolev_seminorm(f: RealField, s: float) -> float:
    """Parseval-weighted norm of ``|xi|^s`` times the transform, ``s >= 0``."""
    if s < 0:
        raise ValueError(f"s must be >= 0; got {s}")
    grid = f.grid
    coeffs = _forward_half(grid, f.values)
    if s != 0:
        coeffs *= grid.xi_mag ** s
    return _half_l2_rows(grid, coeffs)

