"""Periodic-box discretization and Fourier transforms.

Conventions used throughout the package:

* The box is ``[-L/2, L/2)^dim``, sampled on the uniform lattice
  ``x_j = j*L/N - L/2``.
* Every operator of the model is a real radial Fourier multiplier acting
  on a real field, so spectral coefficients are stored on the half
  spectrum of ``rfftn``: one entry per integer wavevector with
  ``j in [-N/2, N/2)`` along the leading axes (storage order
  ``0, 1, ..., N/2-1, -N/2, ..., -1``) and ``j = 0..N/2`` along the last
  axis, shape ``N^(dim-1) x (N/2+1)``, with physical wavenumber
  ``xi = 2*pi*j/L``.  ``Grid.xi_mag`` and ``Grid.phase`` are tables on
  this layout.
* The forward transform carries the quadrature weight ``(L/N)^dim`` but
  not the lattice phase ``(-1)^(j_1+...+j_dim)``, which would cancel
  between forward and inverse around real multipliers.  Parseval weighs
  the ``j = 0`` and ``j = N/2`` last-axis planes once and interior
  columns twice (``_half_l2``).
* ``full_from_half`` gives the full ``N^dim`` layout times the phase,
  whose coefficients approximate the continuum integral
  ``F(xi) = int f(x) exp(-i xi.x) dx`` over the box.  Coefficients built
  in spectral space (the ``spectral_tail`` profile) carry the phase,
  which centres them at ``x = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridSpec",
    "Grid",
    "RealField",
    "SpectralField",
    "build_grid",
    "transform_forward",
    "transform_inverse",
    "field_from_function",
    "full_from_half",
]


@dataclass(frozen=True)
class GridSpec:
    """Shape of the periodic box: dimension, points per axis, side length."""

    dim: int
    points_per_axis: int
    box_length: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3; got {self.dim}")
        n = self.points_per_axis
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(
                f"points_per_axis must be a power of two >= 8; got {n}")
        if not (np.isfinite(self.box_length) and self.box_length > 0):
            raise ValueError(f"box_length must be positive; got {self.box_length}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def cell_volume(self) -> float:
        return float((self.box_length / self.points_per_axis) ** self.dim)


@dataclass(frozen=True)
class Grid:
    """Lattice coordinates and the wavenumber table for a :class:`GridSpec`.

    ``coords``, ``indices`` and ``wavenumbers`` hold one full 1-D array
    per axis; ``xi_mag`` (wavevector magnitudes) and ``phase`` (the
    lattice phase) are half-spectrum tables.
    """

    spec: GridSpec
    coords: tuple[np.ndarray, ...]
    indices: tuple[np.ndarray, ...]
    wavenumbers: tuple[np.ndarray, ...]
    xi_mag: np.ndarray = field(repr=False)
    phase: np.ndarray = field(repr=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.spec.shape

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def box_length(self) -> float:
        return self.spec.box_length

    @property
    def cell_volume(self) -> float:
        return self.spec.cell_volume

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*self.coords, indexing="ij")


def build_grid(spec: GridSpec) -> Grid:
    """Build lattice coordinates and the half-spectrum tables.

    Wavenumbers follow FFT storage order, e.g. ``N=8, L=2*pi`` gives
    ``{0, 1, 2, 3, -4, -3, -2, -1}`` along each axis; the tables keep
    the first ``N/2+1`` of them on the last axis (``-4`` stands for
    ``+4`` there, and both enter only through even functions).
    """
    n = spec.points_per_axis
    length = spec.box_length
    j = np.fft.fftfreq(n, d=1.0 / n)  # integer indices 0..N/2-1, -N/2..-1
    x = np.arange(n) * (length / n) - length / 2.0
    xi = 2.0 * np.pi * j / length

    axes_j = tuple(j.copy() for _ in range(spec.dim))
    axes_x = tuple(x.copy() for _ in range(spec.dim))
    axes_xi = tuple(xi.copy() for _ in range(spec.dim))

    half = (slice(None),) * (spec.dim - 1) + (slice(0, n // 2 + 1),)
    mags = np.meshgrid(*axes_xi, indexing="ij", sparse=True)
    xi_mag = np.sqrt(sum(m[half] * m[half] for m in mags))

    # (-1)^(j_1+...+j_dim): relates samples on [-L/2, L/2) to the FFT origin.
    jsum = sum(g[half] for g in np.meshgrid(*axes_j, indexing="ij", sparse=True))
    phase = np.where(jsum % 2 == 0, 1.0, -1.0)

    return Grid(spec=spec, coords=axes_x, indices=axes_j,
                wavenumbers=axes_xi, xi_mag=xi_mag, phase=phase)


@dataclass(frozen=True)
class RealField:
    """Real samples of a function on the lattice of ``grid``."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(
                f"field shape {v.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SpectralField:
    """Half-spectrum coefficients of a real field (layout of ``Grid.xi_mag``)."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != self.grid.xi_mag.shape:
            raise ValueError(
                f"coefficient shape {c.shape} does not match the half "
                f"spectrum {self.grid.xi_mag.shape}")
        object.__setattr__(self, "coeffs", c)


def _forward_half(grid: Grid, values: np.ndarray) -> np.ndarray:
    out = np.fft.rfftn(values, s=grid.shape, axes=tuple(range(grid.dim)))
    out *= grid.cell_volume
    return out


def _inverse_half(grid: Grid, half: np.ndarray) -> np.ndarray:
    out = np.fft.irfftn(half, s=grid.shape, axes=tuple(range(grid.dim)))
    out /= grid.cell_volume
    return out


def _half_l2(grid: Grid, half: np.ndarray) -> float:
    """L2 norm of a real field from its half-spectrum coefficients.

    A sum below ``1e-250`` has squares in or near the subnormal range, so
    it is redone on the field scaled by its coefficient peak; other
    fields take the unscaled sum unchanged.
    """
    sq = half.real ** 2 + half.imag ** 2
    total = 2.0 * np.sum(sq) - np.sum(sq[..., 0]) - np.sum(sq[..., -1])
    if total < 1e-250:
        peak = np.max(np.abs(half))
        if peak > 0:
            return float(peak * _half_l2(grid, half / peak))
    return float(np.sqrt(total / grid.box_length ** grid.dim))


def full_from_half(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Full ``N^dim`` spectrum times the lattice phase, columns ``j > N/2``
    filled by conjugate symmetry ``F(-j) = conj(F(j))``; its entries
    approximate the continuum integrals."""
    phased = half * grid.phase
    axes = tuple(range(grid.dim - 1))  # index i -> -i mod N on these
    # (-1)^j is even in j, so the mirrored columns carry their own phase
    mirror = np.roll(np.flip(phased[..., -2:0:-1], axes), 1, axes)
    return np.concatenate([phased, np.conj(mirror)], axis=-1)


def transform_forward(f: RealField) -> SpectralField:
    """Forward transform to the half spectrum, with quadrature weight."""
    return SpectralField(f.grid, _forward_half(f.grid, f.values))


def transform_inverse(F: SpectralField) -> RealField:
    """Inverse transform back to real samples."""
    return RealField(F.grid, _inverse_half(F.grid, F.coeffs))


def field_from_function(grid: Grid, fn) -> RealField:
    """Sample ``fn(x_1, ..., x_dim)`` on the lattice."""
    return RealField(grid, np.asarray(fn(*grid.meshgrid()), dtype=np.float64))
