"""Periodic-box discretization and Fourier transforms.

Conventions used throughout the package:

* The box is ``[-L/2, L/2)^dim``, sampled on the uniform lattice
  ``x_j = j*L/N - L/2``.
* Spectral coefficients are stored in FFT layout, one entry per integer
  wavevector ``j in [-N/2, N/2)`` along each axis (ascending storage
  order ``0, 1, ..., N/2-1, -N/2, ..., -1``), with physical wavenumber
  ``xi = 2*pi*j/L``.
* The forward transform carries the quadrature weight ``(L/N)^dim`` and
  the lattice phase ``(-1)^(j_1+...+j_dim)``, so a coefficient
  approximates the continuum integral ``F(xi) = int f(x) exp(-i xi.x) dx``
  taken over the box.  Under this convention Parseval reads
  ``||f||_{L2}^2 = sum_j |F_j|^2 / L^dim``.

The public transforms and :class:`SpectralField` use this full layout.
The data profiles, stepper, norms, linear flow and Picard map work on
the half spectrum of ``rfftn`` instead: last-axis columns ``j = 0..N/2``
only, shape ``N^(dim-1) x (N/2+1)``, with the quadrature weight but
without the lattice phase, which would cancel between forward and
inverse around real multipliers.  Parseval there weighs the ``j = 0``
and ``j = N/2`` planes once and interior columns twice (``_half_l2``);
``half_from_full``/``full_from_half`` convert layouts without a
transform.  Coefficients built in spectral space (the ``spectral_tail``
profile, test symbols) carry the phase, which centres them at ``x = 0``.
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
    "half_from_full",
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

    ``coords`` and ``wavenumbers`` hold one 1-D array per axis;
    ``xi_mag`` is the full ``N^dim`` table of wavevector magnitudes.
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

    def wavevector_count(self) -> int:
        return int(self.xi_mag.size)

    @property
    def half_xi_mag(self) -> np.ndarray:
        """``xi_mag`` on the half spectrum (a view of the full table)."""
        return self.xi_mag[..., :self.spec.points_per_axis // 2 + 1]


def build_grid(spec: GridSpec) -> Grid:
    """Build lattice coordinates and the wavenumber table.

    Wavenumbers follow FFT storage order, e.g. ``N=8, L=2*pi`` gives
    ``{0, 1, 2, 3, -4, -3, -2, -1}`` along each axis.
    """
    n = spec.points_per_axis
    length = spec.box_length
    j = np.fft.fftfreq(n, d=1.0 / n)  # integer indices 0..N/2-1, -N/2..-1
    x = np.arange(n) * (length / n) - length / 2.0
    xi = 2.0 * np.pi * j / length

    axes_j = tuple(j.copy() for _ in range(spec.dim))
    axes_x = tuple(x.copy() for _ in range(spec.dim))
    axes_xi = tuple(xi.copy() for _ in range(spec.dim))

    mags = np.meshgrid(*axes_xi, indexing="ij")
    xi_mag = np.sqrt(sum(m * m for m in mags))

    # (-1)^(j_1+...+j_dim): relates samples on [-L/2, L/2) to the FFT origin.
    sign_1d = np.where((np.abs(j).astype(np.int64) % 2) == 0, 1.0, -1.0)
    phase = sign_1d
    for _ in range(spec.dim - 1):
        phase = np.multiply.outer(phase, sign_1d)

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
    """Fourier coefficients of a field, in FFT storage order."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != self.grid.shape:
            raise ValueError(
                f"coefficient shape {c.shape} does not match grid shape {self.grid.shape}")
        object.__setattr__(self, "coeffs", c)

    def is_conjugate_symmetric(self, tol: float = 1e-10) -> bool:
        """True when the coefficients represent a real function."""
        back = np.fft.ifftn(self.coeffs * self.grid.phase)
        scale = np.max(np.abs(self.coeffs)) or 1.0
        return bool(np.max(np.abs(back.imag)) <= tol * scale)


def _forward_coeffs(grid: Grid, values: np.ndarray) -> np.ndarray:
    return np.fft.fftn(values) * (grid.phase * grid.cell_volume)


def _inverse_values(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(coeffs * grid.phase).real / grid.cell_volume


def _forward_half(grid: Grid, values: np.ndarray) -> np.ndarray:
    out = np.fft.rfftn(values, s=grid.shape, axes=tuple(range(grid.dim)))
    out *= grid.cell_volume
    return out


def _inverse_half(grid: Grid, half: np.ndarray) -> np.ndarray:
    out = np.fft.irfftn(half, s=grid.shape, axes=tuple(range(grid.dim)))
    out /= grid.cell_volume
    return out


def _half_l2(grid: Grid, half: np.ndarray) -> float:
    """L2 norm of a real field from its half-spectrum coefficients."""
    sq = half.real ** 2 + half.imag ** 2
    total = 2.0 * np.sum(sq) - np.sum(sq[..., 0]) - np.sum(sq[..., -1])
    return float(np.sqrt(total / grid.box_length ** grid.dim))


def half_from_full(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients of a full-layout (phased) spectrum."""
    m = grid.spec.points_per_axis // 2 + 1
    return coeffs[..., :m] * grid.phase[..., :m]


def full_from_half(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Full-layout (phased) spectrum, columns ``j > N/2`` filled by
    conjugate symmetry ``F(-j) = conj(F(j))``."""
    axes = tuple(range(grid.dim - 1))  # index i -> -i mod N on these
    mirror = np.roll(np.flip(half[..., -2:0:-1], axes), 1, axes)
    return np.concatenate([half, np.conj(mirror)], axis=-1) * grid.phase


def transform_forward(f: RealField) -> SpectralField:
    """Forward transform; coefficients approximate the continuum integral."""
    return SpectralField(f.grid, _forward_coeffs(f.grid, f.values))


def transform_inverse(F: SpectralField) -> RealField:
    """Inverse transform back to real samples (imaginary residue dropped)."""
    return RealField(F.grid, _inverse_values(F.grid, F.coeffs))


def field_from_function(grid: Grid, fn) -> RealField:
    """Sample ``fn(x_1, ..., x_dim)`` on the lattice."""
    return RealField(grid, np.asarray(fn(*grid.meshgrid()), dtype=np.float64))
