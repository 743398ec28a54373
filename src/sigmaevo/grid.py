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
  ``xi = 2*pi*j/L``.  ``Grid.xi_mag`` is the one table a grid stores;
  ``Grid.phase`` (on this layout) and the per-axis arrays ``coords``,
  ``indices`` and ``wavenumbers`` are built each time they are read.
* The forward transform carries the quadrature weight ``(L/N)^dim`` but
  not the lattice phase ``(-1)^(j_1+...+j_dim)``, which would cancel
  between forward and inverse around real multipliers.  The transform
  pair and the norms ``_half_l2_rows`` (L2, from half-spectrum
  coefficients) and ``_lm_norm`` (``L^m``, from samples) take one field
  or a block of fields along one leading row axis: one library call per
  field, one pass per block for the rest, and each row has the bits of
  its field alone (callers pass chunks of about ``ROW_CHUNK_BYTES``).
  One field takes a scalar route through the same code: no row views,
  its sum a numpy scalar tested and rooted as a float (``math.sqrt``),
  with the squares, sums and rescue of a row.  Parseval weighs the
  ``j = 0`` and ``j = N/2`` last-axis planes once and interior columns
  twice (``_parseval_sum``).  Both norms redo a row whose sum leaves
  ``[1e-250, inf)`` on the row scaled by its peak, and look for such
  rows only when a block's extreme sums are out of range; ``L^1`` takes
  no power pass, and one field's ``L^1`` sum is its own range test.
  The norms run under one numpy error state (``_QUIET``), which a
  caller taking several norms can hold once around their bodies
  (``__wrapped__``).  ``_half_energy`` tabulates the
  mode energies of a field once, so that the norm of ``K * field`` for
  a real multiplier ``K`` costs one weighted sum (``_multiplier_l2``).
* Half-spectrum coefficients times ``Grid.phase`` approximate the
  continuum integral ``F(xi) = int f(x) exp(-i xi.x) dx`` over the box;
  the tests' ``full_layout.full_from_half`` fills the full ``N^dim``
  layout from them.  Coefficients built in spectral space (the
  ``spectral_tail`` profile) carry the phase, which centres them at
  ``x = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import ValidationError

__all__ = [
    "GridSpec",
    "Grid",
    "RealField",
    "SpectralField",
    "build_grid",
    "transform_forward",
    "transform_inverse",
]

# Bytes of complex coefficients per chunk of rows in the row-wise norms.
ROW_CHUNK_BYTES = 128 * 1024
# numpy's error state of the norms, as a decorator: a sum out of range
# is redone on the scaled field or returned as it is, never reported.
# A decorated function's body is its ``__wrapped__``, for callers that
# already run under this state.
_QUIET = np.errstate(over="ignore", under="ignore", invalid="ignore")


@dataclass(frozen=True)
class GridSpec:
    """Shape of the periodic box: dimension, points per axis, side length."""

    dim: int
    points_per_axis: int
    box_length: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValidationError(f"dim must be 1, 2 or 3; got {self.dim}")
        n = self.points_per_axis
        if n < 8 or (n & (n - 1)) != 0:
            raise ValidationError(
                f"points_per_axis must be a power of two >= 8; got {n}")
        if not (np.isfinite(self.box_length) and self.box_length > 0):
            raise ValidationError(f"box_length must be positive; got {self.box_length}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def cell_volume(self) -> float:
        return float((self.box_length / self.points_per_axis) ** self.dim)


@dataclass(frozen=True)
class Grid:
    """Lattice coordinates and the wavenumber table for a :class:`GridSpec`.

    Only ``xi_mag`` (wavevector magnitudes, a half-spectrum table) is
    stored.  ``coords``, ``indices`` and ``wavenumbers`` (one 1-D array
    per axis, the same array object on every axis) and ``phase`` (the
    lattice phase) are built each time they are read, so callers read
    them once per run or per table.  ``shape``, ``dim``, ``box_length``
    and ``cell_volume`` are the spec's.  Grids compare and hash by their
    spec, which determines ``xi_mag``.
    """

    spec: GridSpec
    xi_mag: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        # read on every transform and norm, so kept as plain attributes
        for name in ("shape", "dim", "box_length", "cell_volume"):
            object.__setattr__(self, name, getattr(self.spec, name))

    @property
    def indices(self) -> tuple[np.ndarray, ...]:
        """Integer indices ``0..N/2-1, -N/2..-1`` along each axis."""
        n = self.spec.points_per_axis
        return (np.fft.fftfreq(n, d=1.0 / n),) * self.dim

    @property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Lattice coordinates ``x_j = j*L/N - L/2`` along each axis."""
        n, length = self.spec.points_per_axis, self.box_length
        return (np.arange(n) * (length / n) - length / 2.0,) * self.dim

    @property
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Physical wavenumbers ``2*pi*j/L`` along each axis."""
        return (_wavenumbers(self.spec),) * self.dim

    @property
    def phase(self) -> np.ndarray:
        """``(-1)^(j_1+...+j_dim)`` on the half spectrum: it relates
        samples on ``[-L/2, L/2)`` to the FFT origin."""
        jsum = sum(_half_axes(self.indices[0], self.dim))
        return np.where(jsum % 2 == 0, 1.0, -1.0)

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*self.coords, indexing="ij")


def _wavenumbers(spec: GridSpec) -> np.ndarray:
    """``2*pi*j/L`` along one axis, in FFT storage order."""
    n = spec.points_per_axis
    return 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / spec.box_length


def _half_axes(a: np.ndarray, dim: int) -> list[np.ndarray]:
    """Views of one per-axis array ``a`` along each of ``dim`` axes of the
    half spectrum (its first ``N/2+1`` entries on the last axis), shaped
    to broadcast against each other."""
    return np.meshgrid(*(a,) * (dim - 1), a[:a.size // 2 + 1],
                       indexing="ij", sparse=True, copy=False)


def build_grid(spec: GridSpec) -> Grid:
    """Build the grid and its table of wavevector magnitudes.

    Wavenumbers follow FFT storage order, e.g. ``N=8, L=2*pi`` gives
    ``{0, 1, 2, 3, -4, -3, -2, -1}`` along each axis; the table keeps
    the first ``N/2+1`` of them on the last axis (``-4`` stands for
    ``+4`` there, and both enter only through even functions).  It is
    formed from one wavenumber array, viewed along each axis.
    """
    mags = _half_axes(_wavenumbers(spec), spec.dim)
    return Grid(spec=spec, xi_mag=np.sqrt(sum(m * m for m in mags)))


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


def _forward_half(grid: Grid, values: np.ndarray,
                  out: np.ndarray | None = None, weigh: bool = True
                  ) -> np.ndarray:
    """Half-spectrum coefficients of ``values``, written into ``out`` when
    it is given.

    ``values`` is one field or a block of fields along one leading row
    axis: each field is one library call (``rfft`` in 1-D, which skips
    the n-d wrapper with the same bits), and the weight is one pass over
    the block.  With ``weigh=False`` the weight ``cell_volume`` is left
    to the caller, who multiplies by it first where it reads the
    coefficients, for the same bits there.
    """
    if out is None:
        out = np.empty(values.shape[:-grid.dim] + grid.xi_mag.shape, complex)
    transform = np.fft.rfft if grid.dim == 1 else np.fft.rfftn
    for row, dest in _fields(grid, values, out):
        transform(row, out=dest)
    if weigh:
        out *= grid.cell_volume
    return out


def _inverse_half(grid: Grid, half: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Real samples of ``half``, written into ``out`` when it is given;
    rows as in ``_forward_half``."""
    if out is None:
        out = np.empty(half.shape[:-grid.dim] + grid.shape)
    transform = np.fft.irfft if grid.dim == 1 else np.fft.irfftn
    for row, dest in _fields(grid, half, out):
        transform(row, out=dest)  # N samples from N/2 + 1 last-axis modes
    out /= grid.cell_volume
    return out


def _fields(grid: Grid, a: np.ndarray, b: np.ndarray):
    """Matching fields of ``a`` and ``b``: the pair itself for one field,
    one pair per row for a block."""
    return zip(a, b) if a.ndim > grid.dim else ((a, b),)


def _parseval_sum(sq: np.ndarray, lead: int = 0) -> np.float64 | np.ndarray:
    """Sum of ``|F|^2`` over the full spectrum from half-spectrum squares.

    The ``j = 0`` and ``j = N/2`` last-axis planes count once, every
    other column twice: it stands for itself and its conjugate mirror
    ``j > N/2``.  Each term is a pairwise sum (``ndarray.sum``), whose
    order does not depend on threads or the BLAS build, so norms are
    reproducible.  The first ``lead`` axes of ``sq`` index rows and are
    kept: a sum over the trailing axes of contiguous rows has the bits of
    the sum of each row.  When one axis is summed, each plane term is one
    entry per row, which is its own sum.
    """
    axes = tuple(range(lead, sq.ndim))
    total = 2.0 * sq.sum(axis=axes)
    # ``sq.T[j].T`` is ``sq[..., j]``, but a scalar for one 1-D field
    first, last = sq.T[0].T, sq.T[-1].T
    if len(axes) > 1:
        first, last = first.sum(axis=axes[:-1]), last.sum(axis=axes[:-1])
    return total - first - last


def _by_peak(half: np.ndarray, peak: float) -> np.ndarray:
    """``half / peak`` for a finite coefficient peak ``> 0``.

    numpy divides complex values by ``peak`` as ``half * (1 / peak)``,
    and ``1 / peak`` overflows for peaks below about 5.6e-309.  Only
    there are both first scaled by ``2^64``, which is exact; every other
    peak keeps the bits of the plain division.
    """
    with np.errstate(over="ignore"):
        if not np.isfinite(1.0 / peak):
            half, peak = half * 2.0 ** 64, peak * 2.0 ** 64
    return half / peak


def _chunk_rows(grid: Grid) -> int:
    """Rows of half-spectrum coefficients in about ``ROW_CHUNK_BYTES``."""
    return max(1, ROW_CHUNK_BYTES // (16 * grid.xi_mag.size))


@_QUIET
def _half_l2_rows(grid: Grid, rows: np.ndarray, mult: np.ndarray | None = None,
                  out: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> float | np.ndarray:
    """L2 norms of real fields from their half-spectrum coefficients, or
    of ``mult * row`` for a real half-spectrum table ``mult``.

    Rows as in ``_forward_half``: a ``(k,) + half`` block gives one norm
    per row, one field a float from scalar arithmetic.  The squares are
    formed in ``out`` when it is given, two float arrays of at least
    ``k`` rows (of the half-spectrum shape for one field).
    ``(mult re)^2 + (mult im)^2`` in real arithmetic has the bits of the
    squares of the complex product ``mult * row``.  A row whose sum is
    below ``1e-250`` (squares in or near the subnormal range) or not
    finite (squares past the float range) is redone on the row scaled by
    its coefficient peak; other rows take the unscaled sum unchanged.
    """
    # a buffer's first len(rows) entries: k rows, or all of one field
    k = len(rows)
    re2, im2 = (None, None) if out is None else (out[0][:k], out[1][:k])
    if mult is None:
        re2 = np.multiply(rows.real, rows.real, out=re2)
        im2 = np.multiply(rows.imag, rows.imag, out=im2)
    else:
        re2 = np.multiply(rows.real, mult, out=re2)
        re2 *= re2
        im2 = np.multiply(rows.imag, mult, out=im2)
        im2 *= im2
    re2 += im2
    totals = _parseval_sum(re2, lead=rows.ndim - grid.dim)
    if rows.ndim > grid.dim:
        norms = np.sqrt(totals / grid.box_length ** grid.dim)
        if not (totals.min() >= 1e-250 and totals.max() < np.inf):
            for i in np.flatnonzero(~((totals >= 1e-250) & (totals < np.inf))):
                norms[i] = _half_l2_rows(grid, rows[i], mult, (re2[i], im2[i]))
        return norms
    if not 1e-250 <= totals < math.inf:
        row = rows if mult is None else mult * rows
        peak = np.max(np.abs(row))
        if 0 < peak < math.inf:
            return float(peak * _half_l2_rows(grid, _by_peak(row, peak),
                                              None, (re2, im2)))
    return math.sqrt(totals / grid.box_length ** grid.dim)


def _half_energy(grid: Grid, half: np.ndarray) -> tuple[float, np.ndarray]:
    """Coefficient peak and mode energies ``|half / peak|^2 / L^dim``.

    ``_multiplier_l2(peak, K, E, ...)`` is then the L2 norm of the field
    ``K * half`` for any real multiplier table ``K``.  Dividing by the
    peak keeps the squares in range at any amplitude.
    """
    peak = float(np.max(np.abs(half)))
    scaled = _by_peak(half, peak) if peak > 0 else np.zeros_like(half)
    energy = scaled.real ** 2 + scaled.imag ** 2
    energy /= grid.box_length ** grid.dim
    return peak, energy


def _multiplier_l2(peak: float, kernel: np.ndarray, energy: np.ndarray,
                   scratch: np.ndarray) -> float:
    """``peak * sqrt(_parseval_sum(kernel^2 E))``, formed in ``scratch``.

    ``scratch`` is a float array of the half-spectrum shape.
    """
    sq = np.multiply(kernel, kernel, out=scratch)
    sq *= energy
    return float(peak * np.sqrt(_parseval_sum(sq)))


@_QUIET
def _lm_norm(grid: Grid, values: np.ndarray, m: float,
             out: np.ndarray | None = None) -> float | np.ndarray:
    """Discrete ``L^m`` norm ``(sum |f|^m (L/N)^n)^(1/m)`` of samples.

    Rows as in ``_forward_half``: a block of fields gives one norm per
    row, from one ``|f|``, one power (none at ``m = 1``) and one row-sum
    pass over the block (a row sum has the bits of the sum of that field
    alone); one field gives a float from scalar arithmetic.  A sum that
    leaves ``[1e-250, inf)`` is redone on the field scaled by its peak
    ``|f|``, as in ``_half_l2_rows``.  The power pass overwrites ``|f|``,
    so it waits for the peaks' powers to show which sums stay in range;
    at ``m = 1`` one field's sum is its own test.  ``|f|`` and ``|f|^m``
    are formed in ``out`` when it is given (a float array of the
    samples' shape, ``values`` itself allowed), so sums that need no
    rescale allocate no field.
    """
    a = np.abs(values, out=out)
    # The sum is at least its largest term and at most size times it, so
    # inside [2e-250, bound] the rule [1e-250, inf) keeps it unscaled.
    bound = 1e300 / math.prod(grid.shape)
    if a.ndim == grid.dim:
        if m == 1:
            total = a.sum()
        elif 2e-250 <= a.max() ** m <= bound:
            a **= m  # the same ufunc loop as ``a ** m``
            total = a.sum()
        else:
            total = np.sum(a ** m)
        if not 1e-250 <= total < math.inf:  # ``a`` still holds |f| here
            peak = a.max()
            if 0 < peak < math.inf:
                return float(peak * _lm_norm(grid, a / peak, m))
        return float((total * grid.cell_volume) ** (1.0 / m))
    axes = tuple(range(1, a.ndim))
    norms = np.empty(len(a))
    top = a.max(axis=axes)
    if m != 1:
        top **= m
    plain = (2e-250 <= top) & (top <= bound)
    for i in np.flatnonzero(~plain):
        norms[i] = _lm_norm(grid, a[i], m)
    # rows rescaled above may overflow here; their sums are unused
    if m != 1:
        a **= m
    totals = a.sum(axis=axes) * grid.cell_volume
    for i in np.flatnonzero(plain):
        norms[i] = totals[i] ** (1.0 / m)
    return norms


def transform_forward(f: RealField) -> SpectralField:
    """Forward transform to the half spectrum, with quadrature weight."""
    return SpectralField(f.grid, _forward_half(f.grid, f.values))


def transform_inverse(F: SpectralField) -> RealField:
    """Inverse transform back to real samples."""
    return RealField(F.grid, _inverse_half(F.grid, F.coeffs))

