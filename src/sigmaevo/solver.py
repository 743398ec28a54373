"""Time integration of the full semilinear equation.

The integrator is exponential: the linear flow is advanced exactly per
mode by the closed-form kernel matrix ``[[A, K1], [dA, dK1]]``, and the
forcing contribution of the nonlocal nonlinearity is added through a
second-order predictor-corrector Duhamel increment.  The predictor uses
the forcing at the step start with the closed-form response weight
``int_0^dt K1``; the corrector replaces it by the trapezoidal blend of
the forcing at the start and at the predicted end state.  With the
nonlinearity switched off every step is exact.

The forcing lives on the band (``_band``): the rectangular blocks of
the half spectrum that the two-thirds dealias rule keeps, where the
smoothing symbol times the mask is not zero (Orszag, *J. Atmos. Sci.*
28, 1971).  The Riesz and Duhamel tables are stored there only, and
every forcing product and add runs on the band's views of the state.

The kernel matrix is stored as three float tables, ``K1``, ``dA`` and
``dK1`` (``StepTables``): ``A = K1 + exp(-dt)`` is formed in the step's
scratch just before its product.  A step runs in four complex
half-spectrum buffers, one band row and one field of real samples
(``_StepWork``): the state ``(u, u_t)`` in one of two pairs, the new
state in the other, and the first forcing.
The step needs ``new_u`` before the second forcing but ``new_u_t`` only
in the corrector, so ``new_u_t``'s buffer holds the scratch, the
transforms of both forcings and the prediction first, and the second
forcing takes the field's memory once its samples are transformed
(Cox & Matthews, *J. Comput. Phys.* 176, 2002, for the
predictor-corrector).

Runaway growth is reported as a labeled blow-up signal, never as a
crash: the model proves nothing about blow-up, so the solver only
flags it.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import PROFILES, make_profile
from .grid import (Grid, GridSpec, RealField, SpectralField, build_grid,
                   _QUIET, _chunk_rows, _forward_half,
                   _half_l2_rows, _inverse_half, _lm_norm)
from .params import ModelParams, ValidationError
from .propagator import decay_exponent, duhamel_weight, velocity_kernels
from .operators import (ABS_FLOOR, INT_POWER_MAX, riesz_multiplier,
                        _floored_power, _power_bits, _scalar_power)

__all__ = [
    "SolverConfig",
    "Trajectory",
    "BlowUpSignal",
    "StepTables",
    "make_data",
    "nonlinearity",
    "etd_step",
    "integrate",
    "horizon_limit",
    "xt_weighted_sums",
    "xt_norm",
    "xt_distance",
    "zero_trajectory",
]

# Growth factor over the initial data norms that triggers the blow-up label.
BLOWUP_FACTOR = 1e6


class BlowUpSignal(Exception):
    """Raised when the integration detects runaway or non-finite growth."""

    def __init__(self, time: float, step: int, reason: str):
        super().__init__(f"blow-up signal at t={time:g} (step {step}): {reason}")
        self.time = time
        self.step = step
        self.reason = reason


@dataclass(frozen=True)
class SolverConfig:
    """Everything needed to run one simulation."""

    params: ModelParams
    grid: GridSpec
    dt: float
    t_end: float
    data_amplitude: float
    data_profile: str = "gaussian"
    dealias: bool = True
    mean_zero: bool = False
    seed: int = 0
    snapshot_interval: float | None = None
    store_states: bool = False
    nonlinearity_enabled: bool = True

    def __post_init__(self):
        if not 0 < self.dt <= 0.5:
            raise ValidationError(f"dt must lie in (0, 0.5]; got {self.dt}")
        if not self.t_end >= self.dt:
            raise ValidationError(f"t_end must be >= dt; got {self.t_end}")
        if not 0 <= self.data_amplitude < math.inf:
            raise ValidationError("data_amplitude must be finite and "
                                  f"nonnegative; got {self.data_amplitude}")
        if self.data_profile not in PROFILES:
            raise ValidationError(f"unknown data profile '{self.data_profile}'")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValidationError(f"seed must be an integer >= 0; got {self.seed}")
        if self.params.n != self.grid.dim:
            raise ValidationError(
                f"params.n = {self.params.n} does not match grid dim = {self.grid.dim}")


def horizon_limit(config: SolverConfig) -> float:
    """Largest t_end for which the box still mimics whole-space decay.

    The slowest nonzero mode decays like ``exp(-(2 pi / L)^(2 sigma) t)``;
    past roughly a tenth of its e-folding scale the discrete spectrum
    fakes saturation, so runs beyond that are rejected.
    """
    ratio = config.grid.box_length / (2.0 * np.pi)
    return 0.1 * ratio ** (2.0 * config.params.sigma)


def _check_horizon(config: SolverConfig) -> None:
    """Preflight shared by every run: refuse t_end past the horizon."""
    limit = horizon_limit(config)
    if config.t_end > limit * (1.0 + 1e-9):
        raise ValidationError(
            f"t_end = {config.t_end} exceeds the box-validity horizon "
            f"{limit:.6g}; enlarge the box")


def _whole_steps(span: float, dt: float, name: str) -> int:
    steps = int(round(span / dt)) if np.isfinite(span) else 0
    if steps < 1 or abs(steps * dt - span) > 1e-9 * span:
        raise ValidationError(
            f"{name} = {span} is not a whole number of steps of dt = {dt}")
    return steps


def make_data(config: SolverConfig, grid: Grid | None = None) -> RealField:
    """Initial velocity for ``config`` (see :mod:`sigmaevo.data`)."""
    if grid is None:
        grid = build_grid(config.grid)
    return make_profile(grid, config.data_profile, config.data_amplitude,
                        seed=config.seed, mean_zero=config.mean_zero,
                        m=config.params.m)


def _data_hat(config: SolverConfig, grid: Grid) -> np.ndarray:
    """Half-spectrum coefficients of the initial velocity.

    An amplitude whose data transform overflows is refused as input.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u1_hat = _forward_half(grid, make_data(config, grid).values)
    if not np.all(np.isfinite(u1_hat)):
        raise ValidationError(
            f"epsilon = {config.data_amplitude} overflows the transform "
            "of the initial data")
    return u1_hat


def _band(spec: GridSpec, dealias: bool) -> tuple[tuple[slice, ...], ...]:
    """The modes the forcing keeps, as rectangular blocks of the half
    spectrum (one slice per axis).

    With ``dealias`` it is the two-thirds rule, ``|j| <= N/3`` on every
    axis: ``j = 0..N//3`` on the last axis and ``|j| <= N//3`` on each
    leading one, which storage order splits into a low and a high slice,
    so one block in 1-D, two in 2-D and four in 3-D.  Without it the
    band is the whole half spectrum.
    """
    if not dealias:
        return ((slice(None),) * spec.dim,)
    n, c = spec.points_per_axis, spec.points_per_axis // 3  # N/3 not whole
    lead = (slice(0, c + 1), slice(n - c, n))
    return tuple(b + (slice(0, c + 1),)
                 for b in itertools.product(lead, repeat=spec.dim - 1))


class _ForcingTables:
    """The band of the forcing and the smoothing symbol on it.

    A table on the band is a band row: its blocks flattened, one after
    the other (``band_row``); rows of several forcings stack along
    leading axes.  ``band_views`` gives the blocks of band rows back as
    views, and ``blocks`` the band's views of half-spectrum arrays.
    ``riesz_mult`` is the symbol on the band: the dealias mask is zero
    everywhere else.
    """

    def __init__(self, grid: Grid, params: ModelParams, dealias: bool):
        self.grid = grid
        self.params = params
        self.band = _band(grid.spec, dealias)
        self.shapes = [grid.xi_mag[b].shape for b in self.band]
        ends = list(itertools.accumulate(math.prod(s) for s in self.shapes))
        self.spans = [slice(a, b) for a, b in zip([0] + ends, ends)]
        # formed on the full table, whose entry (0, ...) is the zero mode
        # that riesz_multiplier sets to 0, then cut to the band
        self.riesz_mult = self.band_row(
            riesz_multiplier(grid.xi_mag, params.alpha))

    def blocks(self, a: np.ndarray) -> list[np.ndarray]:
        """The band's views of half-spectrum array(s) ``a``."""
        return [a[(...,) + b] for b in self.band]

    def band_row(self, table: np.ndarray) -> np.ndarray:
        """A new band row of a half-spectrum table."""
        return np.concatenate([v.ravel() for v in self.blocks(table)])

    def band_views(self, rows: np.ndarray) -> list[np.ndarray]:
        """Views of band rows shaped like the blocks of the band."""
        lead = rows.shape[:-1]
        return [rows[..., span].reshape(lead + s)
                for span, s in zip(self.spans, self.shapes)]

    def spread(self, rows: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        """Band rows on the full half-spectrum layout, written into
        ``out`` when it is given: zero outside the band, then the blocks."""
        if out is None:
            out = np.empty(rows.shape[:-1] + self.grid.xi_mag.shape, complex)
        out.fill(0.0)
        for dest, block in zip(self.blocks(out), self.band_views(rows)):
            dest[...] = block
        return out


class StepTables(_ForcingTables):
    """Per-mode half-spectrum tables of one time step ``dt``: three float
    tables ``K1``, ``dA`` and ``dK1`` of the kernel matrix, and the
    Duhamel weight ``IK1`` on the band only, as a band row.

    ``A = K1 + decay``, ``decay = exp(-dt)``, is not stored: ``flow``
    forms it in its scratch, with the bits of ``kernel_arrays``' ``A``.
    ``dA = -k K1`` is formed in the memory of ``k``.  The tables hold no
    work buffers: each loop that steps or records owns its own
    (``_StepWork`` for ``integrate``).
    """

    def __init__(self, grid: Grid, params: ModelParams, dt: float,
                 dealias: bool):
        super().__init__(grid, params, dealias)
        k = grid.xi_mag ** (2.0 * params.sigma)
        # the band row first: the full weight's freed memory then takes
        # the kernel tables instead of leaving a hole in the heap
        self.IK1 = self.band_row(duhamel_weight(k, dt))
        self.K1, self.dK1 = next(velocity_kernels(k, (dt,)))
        self.dA = np.multiply(np.negative(k, out=k), self.K1, out=k)  # -k K1
        self.decay = np.exp(-dt)
        # x ** 1.0 is x: at sigma = 1 the table is xi_mag itself
        self.xi_sigma = (grid.xi_mag if params.sigma == 1.0
                         else grid.xi_mag ** params.sigma)

    def flow(self, row: int, u_hat: np.ndarray, ut_hat: np.ndarray,
             out: np.ndarray, scratch: np.ndarray,
             matrix: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
        """Row ``row`` of the free flow over one step, ``M(dt) (u, u_t)``:
        ``out <- A u + K1 u_t`` (row 0) or ``dA u + dK1 u_t`` (row 1) per
        mode, the second product formed in ``scratch`` (a contiguous
        complex array of the inputs' shape).  Leading axes of the inputs
        index rows that all advance at once.

        Without ``matrix``, row 0 first forms ``A`` in the float memory
        of ``scratch``, which the second product overwrites once ``A u``
        is formed; so row 0's ``scratch`` is no input, while row 1's may
        be ``u_hat`` itself.  ``matrix`` stands in for
        ``(A, K1, dA, dK1)``: complex copies give the same bits without
        numpy casting each float table in every product.
        """
        first, second = (matrix or (None, self.K1, self.dA, self.dK1))[
            2 * row:2 * row + 2]
        if first is None:  # A, formed in the float memory of scratch
            first = np.add(second, self.decay, out=scratch.reshape(-1).view(
                float)[:second.size].reshape(second.shape))
        np.multiply(first, u_hat, out=out)
        out += np.multiply(second, ut_hat, out=scratch)
        return out


class _StepWork:
    """Work buffers of one stepping run with ``tables``: four complex half
    tables, one complex band row and one row of real samples ``field``.

    The state ``(u, u_t)`` lives in one of the two ``pairs`` and each
    step writes the other (``_etd_step_arrays``).  ``forcing`` holds the
    step's two forcings ``(f0, f1)``: ``f0`` is the band row and ``f1``
    a band row on the memory of ``field``, which is allocated to fit
    both (the band is the whole half spectrum without dealiasing), since
    the step never needs the samples and ``f1`` at once.  Between steps
    the pair that does not hold the state holds nothing, and
    ``squares[i]``, the two float tables of the records' L2 squares, is
    a view of the memory of ``pairs[i]``'s u.
    """

    def __init__(self, tables: _ForcingTables):
        half, shape = tables.grid.xi_mag.shape, tables.grid.shape
        band = tables.riesz_mult.size
        self.pairs = tuple((np.empty(half, complex), np.empty(half, complex))
                           for _ in range(2))
        # the field before the smaller forcing row, which would split a
        # free block of the heap that the field fits
        floats = np.empty(max(math.prod(shape), 2 * band))
        self.field = floats[:math.prod(shape)].reshape((1,) + shape)
        self.forcing = (np.empty(band, complex),
                        floats[:2 * band].view(complex))
        self.squares = tuple(u.reshape(-1).view(float).reshape((2,) + half)
                             for u, _ in self.pairs)


def _finite_rows(a: np.ndarray, peak: float) -> int:
    """Number of leading rows of ``a`` whose samples are all finite,
    given the maximum ``peak`` of ``a``."""
    # np.max propagates NaN, so the peak checks every sample
    if math.isfinite(peak):
        return len(a)
    return int(np.argmin(np.isfinite(np.max(a, axis=tuple(range(1, a.ndim))))))


def _nonlinearity_hat(u_rows: np.ndarray, tables: _ForcingTables,
                      times, step: int, spectrum: np.ndarray | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Band rows of the smoothed pointwise power of each row of physical
    samples ``u_rows`` (shape ``(k,) + grid.shape``), written into
    ``out`` (``(k, band size)``) when it is given.

    The power is formed with the float memory of ``spectrum`` (a
    contiguous ``(k,) + half`` complex array) as its scratch, and its
    transform is written into ``spectrum`` without the quadrature weight
    ``cell_volume``.  Only the band is read: ``(x * cell_volume) *
    riesz_mult`` goes into ``out``, with the bits of the weighted
    transform times the symbol, and no pass weighs the modes outside the
    band.  Row ``j`` is the state at
    ``times[j]``, step ``step + j``.  The first row that is not finite,
    or whose power overflows, raises ``BlowUpSignal`` with its time and
    step, as if the rows had been taken one by one; within a row a
    non-finite state wins.  ``u_rows`` is overwritten: it holds
    ``|u|^p`` on return, unless ``out`` shares its memory, which the
    transform has read by the time ``out`` is written.
    """
    grid, p, a = tables.grid, tables.params.p, u_rows
    if spectrum is None:
        spectrum = np.empty((len(a),) + grid.xi_mag.shape, complex)
    if out is None:
        out = np.empty((len(a), tables.riesz_mult.size), complex)
    peak = float(np.abs(a, out=a).max(initial=0.0))
    n_state = _finite_rows(a, peak)
    powered = a[:n_state]
    # spectrum holds 2 (N/2+1) N^(dim-1) >= N^dim floats per row, and the
    # power is done with its scratch before the transform fills it
    scratch = spectrum.reshape(-1).view(float)[:powered.size].reshape(
        powered.shape)
    _floored_power(powered, p, scratch)
    bits = _power_bits(p)
    if n_state == len(a) and bits is not None:
        peak = _scalar_power(peak, bits)  # the power's peak, without a pass
    else:
        peak = powered.max(initial=0.0)
    n_power = _finite_rows(powered, peak)
    if n_power < len(a):
        reason = ("non-finite state in nonlinearity" if n_power == n_state
                  else "overflow in pointwise power")
        raise BlowUpSignal(times[n_power], step + n_power, reason)
    f_hat = _forward_half(grid, a, out=spectrum, weigh=False)
    # row by row: broadcast over the whole block, numpy would copy the
    # table into a temporary of the block's size
    for src, mult, dest in zip(tables.blocks(f_hat),
                               tables.band_views(tables.riesz_mult),
                               tables.band_views(out)):
        for src_row, dest_row in zip(src, dest):
            np.multiply(src_row, grid.cell_volume, out=dest_row)
            dest_row *= mult
    return out


def nonlinearity(u: RealField, params: ModelParams, dealias: bool = True
                 ) -> RealField:
    """Pointwise ``|u|^p`` followed by the smoothing multiplier.

    With ``dealias`` the two-thirds mask is applied to the transform of
    the pointwise power before smoothing.
    """
    tables = _ForcingTables(u.grid, params, dealias)
    f_hat = tables.spread(
        _nonlinearity_hat(u.values[np.newaxis].copy(), tables, (0.0,), 0))
    return RealField(u.grid, _inverse_half(u.grid, f_hat[0]))


def _etd_step_arrays(u_hat: np.ndarray, ut_hat: np.ndarray,
                     tables: StepTables, work: _StepWork, t: float,
                     step: int, nonlinear: bool,
                     out: tuple[np.ndarray, np.ndarray]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """One step from ``(u_hat, ut_hat)``, written into the pair ``out``.

    The inputs are only read until both forcings are formed, and every
    temporary is a buffer of ``work`` or of ``out``, so a blow-up signal
    in mid-step leaves the inputs as the last completed state.  The
    free flow of ``u`` goes into ``new_u``.  ``new_ut``'s buffer is the
    scratch of that flow (``A``, then ``K1 u_t``: ``StepTables.flow``),
    takes the transform of each forcing and holds
    the prediction until it is transformed back.  The forcings ``f0``
    and ``f1`` are the band rows of ``work.forcing``; ``f1``'s row is
    the scratch of the products with ``IK1`` and ``K1``, and outside the
    band those products are zero, so the adds run on the band's views.
    ``f1``'s row is the memory of ``work.field``: each forcing's
    transform has consumed the samples before the row is written, and
    ``IK1 f0`` is in the prediction before its inverse transform writes
    the samples.  The corrector forms ``new_ut = dA u + dK1 u_t + K1
    favg`` last, with ``u_hat``'s buffer as the scratch of its free flow
    once ``u`` is read: every step overwrites ``u_hat``.
    """
    new_u, new_ut = out
    tables.flow(0, u_hat, ut_hat, new_u, scratch=new_ut)
    if nonlinear:
        grid, field, (f0, f1) = tables.grid, work.field, work.forcing
        spectrum, views = new_ut[np.newaxis], tables.band_views
        _inverse_half(grid, u_hat, out=field[0])
        _nonlinearity_hat(field, tables, (t,), step, spectrum, f0[np.newaxis])
        np.multiply(tables.IK1, f0, out=f1)  # the prediction IK1 f0 + new_u
        np.copyto(new_ut, new_u)
        for pred, free, g in zip(tables.blocks(new_ut), tables.blocks(new_u),
                                 views(f1)):
            np.add(g, free, out=pred)
        _inverse_half(grid, new_ut, out=field[0])
        _nonlinearity_hat(field, tables, (t,), step, spectrum, f1[np.newaxis])
        favg = f0
        favg += f1
        favg *= 0.5
        np.multiply(tables.IK1, favg, out=f1)
        for dest, g in zip(tables.blocks(new_u), views(f1)):
            dest += g
    tables.flow(1, u_hat, ut_hat, new_ut, scratch=u_hat)
    if nonlinear:
        for dest, k1, fa, g in zip(tables.blocks(new_ut),
                                   tables.blocks(tables.K1), views(favg),
                                   views(f1)):
            dest += np.multiply(k1, fa, out=g)
    return new_u, new_ut


def etd_step(state: tuple[SpectralField, SpectralField], dt: float,
             params: ModelParams, dealias: bool = True,
             nonlinear: bool = True) -> tuple[SpectralField, SpectralField]:
    """Advance one step; exact whenever the forcing vanishes."""
    if not 0 < dt <= 0.5:
        raise ValidationError(f"dt must lie in (0, 0.5]; got {dt}")
    grid = state[0].grid
    tables = StepTables(grid, params, dt, dealias)
    work = _StepWork(tables)
    # the step overwrites its input u, so it runs from copies
    for buf, field in zip(work.pairs[1], state):
        np.copyto(buf, field.coeffs)
    new = _etd_step_arrays(*work.pairs[1], tables, work, 0.0, 0, nonlinear,
                           out=work.pairs[0])
    return tuple(SpectralField(grid, c) for c in new)


@dataclass(frozen=True)
class Trajectory:
    """Result of every run (linear flow, integration, Picard map).

    ``l2``, ``dt_l2``, ``hsigma`` and ``lm`` are ``||u||_2``,
    ``||u_t||_2``, ``|u|_{H^sigma}`` and ``||u||_m`` at ``times``.
    ``states``, when stored, is one complex array of shape
    ``(n_snap, 2) + half``: ``states[i]`` is the ``(u, du/dt)`` pair of
    snapshot ``i``, each laid out like ``SpectralField.coeffs``, and
    ``states[rows, c]`` is a block of rows.  ``final_state`` is the
    ``(u, du/dt)`` pair at the last time.  Every norm series, and
    ``states`` when present, holds one entry per time; a mismatch raises
    ``ValueError``, and the fields cannot be reassigned afterwards.  A
    run cut by a ``BlowUpSignal`` keeps the signal, with its time, step
    and reason, as ``blowup`` (without its traceback), and ``blew_up``
    is whether there is one.
    """

    times: np.ndarray
    l2: np.ndarray
    dt_l2: np.ndarray
    hsigma: np.ndarray
    lm: np.ndarray
    params: ModelParams
    grid: Grid
    states: np.ndarray | None = None
    final_state: tuple[np.ndarray, np.ndarray] | None = None
    blowup: BlowUpSignal | None = None

    def __post_init__(self):
        if len(self.times) == 0:
            raise ValueError("trajectory must contain at least one snapshot")
        if np.any(np.diff(self.times) <= 0) or self.times[0] != 0.0:
            raise ValueError("snapshot times must start at 0 and increase")
        series = {"l2": self.l2, "dt_l2": self.dt_l2, "hsigma": self.hsigma,
                  "lm": self.lm, "states": self.states}
        for name, values in series.items():
            if values is not None and len(values) != len(self.times):
                raise ValueError(
                    f"{name} holds {len(values)} entries for "
                    f"{len(self.times)} snapshot times")
        norms = np.stack([self.l2, self.dt_l2, self.hsigma, self.lm])
        if np.any(norms < 0):
            raise ValueError("norms must be nonnegative")
        # a blown-up run may end on the runaway record
        if not self.blew_up and not np.all(np.isfinite(norms)):
            raise ValueError("norms must be finite unless the run blew up")

    @property
    def blew_up(self) -> bool:
        return self.blowup is not None

    @classmethod
    def from_records(cls, times, records, params: ModelParams, grid: Grid,
                     **extra) -> "Trajectory":
        """Build from one ``_record_norms`` tuple per time."""
        l2, dt_l2, hsigma, lm = np.array(records).T
        return cls(np.array(times, dtype=float), l2, dt_l2, hsigma, lm,
                   params, grid, **extra)

    @property
    def label(self) -> str:
        # A run from rest first ramps up (u ~ t u1); it has decayed once the
        # L2 norm turned over, i.e. ends below its maximum.
        if self.blew_up or 0 < self.l2[-1] >= np.max(self.l2):
            return "growth-detected"
        return "decayed"

    def quantity(self, name: str) -> np.ndarray:
        try:
            return {"u_L2": self.l2, "dtu_L2": self.dt_l2,
                    "Hsigma_semi": self.hsigma, "Lm": self.lm}[name]
        except KeyError:
            raise ValueError(f"unknown quantity '{name}'") from None


@_QUIET
def _record_norms(tables: StepTables, u_hat, ut_hat, field: np.ndarray,
                  squares):
    """Norms ``(L2, dt L2, H^sigma seminorm, L^m)`` of a half-spectrum
    state ``(u_hat, ut_hat)``, four floats, or of a block of states
    (rows as in ``grid._forward_half``), four arrays of one norm per
    row, under one numpy error state: the norms' bodies
    (``__wrapped__``) run without their own.

    The L2 squares are formed in ``squares`` (two float tables of at
    least the state's rows) and the samples of ``u`` in ``field``.  The
    two may share memory: the L2 sums have filled ``squares`` before the
    inverse transform writes ``field``."""
    grid, sq = tables.grid, squares
    l2, lm = _half_l2_rows.__wrapped__, _lm_norm.__wrapped__
    return (l2(grid, u_hat, None, sq), l2(grid, ut_hat, None, sq),
            l2(grid, u_hat, tables.xi_sigma, sq),
            lm(grid, _inverse_half(grid, u_hat, out=field), tables.params.m,
               out=field))


def integrate(config: SolverConfig) -> Trajectory:
    """Run the exponential integrator over ``[0, t_end]``.

    ``t_end`` and ``snapshot_interval`` must both be whole numbers of
    steps ``dt`` (to 1e-9 relative).  Norms are recorded every
    ``snapshot_interval`` time units (default: every step up to 1200
    snapshots, then coarsened).  A blow-up signal truncates the
    trajectory and labels it, which is a normal outcome.  With
    ``store_states`` every recorded state is copied into one block of
    rows, allocated for the whole run and cut to the recorded rows.
    """
    _check_horizon(config)
    n_steps = _whole_steps(config.t_end, config.dt, "t_end")
    if config.snapshot_interval is None:
        every = max(1, int(np.ceil(n_steps / 1200)))
    else:
        every = _whole_steps(config.snapshot_interval, config.dt,
                             "snapshot_interval")

    grid = build_grid(config.grid)
    params = config.params
    tables = StepTables(grid, params, config.dt, config.dealias)
    # the data's temporaries are freed before the step buffers exist
    data_hat = _data_hat(config, grid)
    work = _StepWork(tables)

    u_hat, ut_hat = work.pairs[0]
    u_hat.fill(0.0)
    np.copyto(ut_hat, data_hat)
    del data_hat

    times = [0.0]
    records = [_record_norms(tables, u_hat, ut_hat, work.field[0],
                             work.squares[1])]
    states = None
    if config.store_states:
        n_rec = n_steps // every + 1 + (n_steps % every != 0)
        states = np.empty((n_rec, 2) + grid.xi_mag.shape, complex)
        states[0, 0], states[0, 1] = u_hat, ut_hat
    ref = max(max(records[0]), ABS_FLOOR)

    blowup = None
    try:
        for step in range(1, n_steps + 1):
            t = step * config.dt
            u_hat, ut_hat = _etd_step_arrays(
                u_hat, ut_hat, tables, work, t, step,
                nonlinear=config.nonlinearity_enabled,
                out=work.pairs[step % 2])
            if step % every == 0 or step == n_steps:
                rec = _record_norms(tables, u_hat, ut_hat, work.field[0],
                                    work.squares[1 - step % 2])
                times.append(t)
                records.append(rec)
                if states is not None:
                    row = len(times) - 1
                    states[row, 0], states[row, 1] = u_hat, ut_hat
                if (not all(map(math.isfinite, rec))
                        or max(rec) > BLOWUP_FACTOR * ref):
                    raise BlowUpSignal(t, step, "runaway or non-finite norms")
    except BlowUpSignal as sig:
        # its traceback holds this frame, which holds the signal: kept,
        # the cycle would keep the tables and buffers until gc runs
        blowup = sig.with_traceback(None)

    if states is not None:
        states = states[:len(times)]
    return Trajectory.from_records(times, records, params, grid,
                                   states=states,
                                   final_state=(u_hat.copy(), ut_hat.copy()),
                                   blowup=blowup)


def zero_trajectory(config: SolverConfig) -> Trajectory:
    """All-zero trajectory on every step time ``0, dt, ..., t_end`` of
    ``config``, with its states stored.

    Built in closed form, with the bits of ``integrate`` run from zero
    data with the nonlinearity off: no step is taken and no transform
    is made.  ``states`` broadcasts one read-only zero over its
    ``(n_snap, 2) + half`` shape, so it takes O(1) memory; ``final_state``
    is its last row.
    A config that ``integrate`` refuses (past the horizon, or ``t_end``
    not a whole number of steps) is refused with the same message.
    """
    _check_horizon(config)
    n_steps = _whole_steps(config.t_end, config.dt, "t_end")
    grid = build_grid(config.grid)
    times = [0.0] + [step * config.dt for step in range(1, n_steps + 1)]
    states = np.broadcast_to(np.zeros(1, complex),
                             (len(times), 2) + grid.xi_mag.shape)
    return Trajectory.from_records(times, [(0.0,) * 4] * len(times),
                                   config.params, grid, states=states,
                                   final_state=tuple(states[-1]))


# ---------------------------------------------------------------------------
# Decay-weighted supremum norm over a trajectory.

def xt_weighted_sums(times: np.ndarray, l2: np.ndarray, hsigma: np.ndarray,
                     dt_l2: np.ndarray, params: ModelParams) -> np.ndarray:
    """Weighted term sum per snapshot; its sup over time is the norm.

    Weights ``(1+t)^g``, ``(1+t)^(g+1/2)`` and ``(1+t)^(g+1)`` on the L2,
    ``H^sigma`` and ``u_t`` norms, ``g`` the linear L2 decay rate.
    """
    base = -decay_exponent(params, 0.0, 0)
    w = 1.0 + np.asarray(times)
    return (w ** base * l2 + w ** (base + 0.5) * hsigma
            + w ** (base + 1.0) * dt_l2)


def xt_norm(traj: Trajectory, t_max: float | None = None) -> float:
    """Decay-weighted supremum norm of a trajectory.

    ``t_max`` restricts the supremum to snapshots with ``t <= t_max``.
    """
    sel = slice(None) if t_max is None else traj.times <= t_max
    times = traj.times[sel]
    if times.size == 0:
        raise ValueError("no snapshots in the requested time range")
    return float(np.max(xt_weighted_sums(times, traj.l2[sel], traj.hsigma[sel],
                                         traj.dt_l2[sel], traj.params)))


def xt_distance(a: Trajectory, b: Trajectory) -> float:
    """Decay-weighted supremum distance between two state-storing
    trajectories of one grid and one parameter tuple.

    The snapshots go in chunks of rows (``grid._chunk_rows``): each
    component of a chunk's difference is one subtraction of state rows
    into one buffer, and the three norms are row sums with the bits of
    one ``_half_l2_rows`` call per difference.
    """
    if a.states is None or b.states is None:
        raise ValueError("both trajectories must store states")
    if a.grid.spec != b.grid.spec or a.params != b.params:
        raise ValueError("trajectories must share grid and parameters")
    if len(a.times) != len(b.times) or not np.allclose(
            a.times, b.times, rtol=1e-9, atol=1e-12):
        raise ValueError("trajectories must share snapshot times")
    grid = a.grid
    xs = grid.xi_mag ** a.params.sigma
    n_snap = len(a.times)
    l2, hs, dt = (np.empty(n_snap) for _ in range(3))
    chunk = _chunk_rows(grid)
    diff = np.empty((chunk,) + xs.shape, complex)
    squares = tuple(np.empty((chunk,) + xs.shape) for _ in range(2))
    for lo in range(0, n_snap, chunk):
        rows = slice(lo, lo + chunk)
        d = diff[:min(chunk, n_snap - lo)]
        du = np.subtract(a.states[rows, 0], b.states[rows, 0], out=d)
        l2[rows] = _half_l2_rows(grid, du, None, squares)
        hs[rows] = _half_l2_rows(grid, du, xs, squares)
        dut = np.subtract(a.states[rows, 1], b.states[rows, 1], out=d)
        dt[rows] = _half_l2_rows(grid, dut, None, squares)
    return float(np.max(xt_weighted_sums(a.times, l2, hs, dt, a.params)))
