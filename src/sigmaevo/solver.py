"""Time integration of the full semilinear equation.

The integrator is exponential: the linear flow is advanced exactly per
mode by the closed-form kernel matrix ``[[A, K1], [dA, dK1]]``, and the
forcing contribution of the nonlocal nonlinearity is added through a
second-order predictor-corrector Duhamel increment.  The predictor uses
the forcing at the step start with the closed-form response weight
``int_0^dt K1``; the corrector replaces it by the trapezoidal blend of
the forcing at the start and at the predicted end state.  With the
nonlinearity switched off every step is exact.

Runaway growth is reported as a labeled blow-up signal, never as a
crash: the model proves nothing about blow-up, so the solver only
flags it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import PROFILES, make_profile
from .grid import (Grid, GridSpec, RealField, SpectralField, build_grid,
                   _forward_half, _half_l2, _inverse_half)
from .params import ModelParams
from .propagator import decay_exponent, duhamel_weight, kernel_arrays
from .operators import riesz_multiplier

__all__ = [
    "SolverConfig",
    "Trajectory",
    "XTNorm",
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
# Floor applied to |u| before the pointwise power, so that |0|^p underflows
# back to 0 instead of tripping log(0).
ABS_FLOOR = 1e-300


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
            raise ValueError(f"dt must lie in (0, 0.5]; got {self.dt}")
        if self.t_end < self.dt:
            raise ValueError(f"t_end must be >= dt; got {self.t_end}")
        if self.data_amplitude < 0:
            raise ValueError(
                f"data_amplitude must be nonnegative; got {self.data_amplitude}")
        if self.data_profile not in PROFILES:
            raise ValueError(f"unknown data profile '{self.data_profile}'")
        if self.params.n != self.grid.dim:
            raise ValueError(
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
        raise ValueError(
            f"t_end = {config.t_end} exceeds the box-validity horizon "
            f"{limit:.6g}; enlarge the box")


def _whole_steps(span: float, dt: float, name: str) -> int:
    steps = int(round(span / dt))
    if steps < 1 or abs(steps * dt - span) > 1e-9 * span:
        raise ValueError(
            f"{name} = {span} is not a whole number of steps of dt = {dt}")
    return steps


def make_data(config: SolverConfig, grid: Grid | None = None) -> RealField:
    """Initial velocity for ``config`` (see :mod:`sigmaevo.data`)."""
    if grid is None:
        grid = build_grid(config.grid)
    return make_profile(grid, config.data_profile, config.data_amplitude,
                        seed=config.seed, mean_zero=config.mean_zero,
                        n=config.params.n, m=config.params.m)


def _dealias_mask(grid: Grid) -> np.ndarray:
    """Two-thirds rule on the half spectrum: keep ``|j| <= N/3`` on every axis."""
    n = grid.spec.points_per_axis
    keep = np.ones(grid.xi_mag.shape, dtype=bool)
    for axis, idx in enumerate(grid.indices):
        idx = idx[:keep.shape[axis]]
        shape = [1] * grid.dim
        shape[axis] = idx.size
        keep &= (np.abs(idx) <= n / 3.0).reshape(shape)
    return keep


class _ForcingTables:
    """Smoothing symbol on the half spectrum, times the dealias mask."""

    def __init__(self, grid: Grid, params: ModelParams, dealias: bool):
        self.grid = grid
        self.params = params
        self.riesz_mult = riesz_multiplier(grid.xi_mag, params.alpha)
        if dealias:
            self.riesz_mult *= _dealias_mask(grid)


class StepTables(_ForcingTables):
    """Per-mode half-spectrum tables reused by every step of one run."""

    def __init__(self, grid: Grid, params: ModelParams, dt: float,
                 dealias: bool):
        super().__init__(grid, params, dealias)
        k = grid.xi_mag ** (2.0 * params.sigma)
        self.A, self.K1, self.dA, self.dK1 = kernel_arrays(k, dt)
        self.IK1 = duhamel_weight(k, dt)
        self.xi_sigma = grid.xi_mag ** params.sigma

    def advance(self, u_hat: np.ndarray, ut_hat: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
        """Free flow over one step: ``M(dt) (u, u_t)`` per mode."""
        return (self.A * u_hat + self.K1 * ut_hat,
                self.dA * u_hat + self.dK1 * ut_hat)


def _abs_power(values: np.ndarray, p: float) -> np.ndarray:
    # Overflow is not an error here; it surfaces as a blow-up signal.
    with np.errstate(over="ignore"):
        return np.maximum(np.abs(values), ABS_FLOOR) ** p


def _nonlinearity_hat(u_phys: np.ndarray, tables: _ForcingTables,
                      t: float, step: int) -> np.ndarray:
    """Half-spectrum coefficients of the smoothed pointwise power of the
    physical samples ``u_phys``."""
    if not np.all(np.isfinite(u_phys)):
        raise BlowUpSignal(t, step, "non-finite state in nonlinearity")
    powed = _abs_power(u_phys, tables.params.p)
    if not np.all(np.isfinite(powed)):
        raise BlowUpSignal(t, step, "overflow in pointwise power")
    f_hat = _forward_half(tables.grid, powed)
    f_hat *= tables.riesz_mult
    return f_hat


def nonlinearity(u: RealField, params: ModelParams, dealias: bool = True
                 ) -> RealField:
    """Pointwise ``|u|^p`` followed by the smoothing multiplier.

    With ``dealias`` the two-thirds mask is applied to the transform of
    the pointwise power before smoothing.
    """
    tables = _ForcingTables(u.grid, params, dealias)
    f_hat = _nonlinearity_hat(u.values, tables, t=0.0, step=0)
    return RealField(u.grid, _inverse_half(u.grid, f_hat))


def _etd_step_arrays(u_hat: np.ndarray, ut_hat: np.ndarray,
                     tables: StepTables, t: float, step: int,
                     nonlinear: bool) -> tuple[np.ndarray, np.ndarray]:
    hom_u, hom_ut = tables.advance(u_hat, ut_hat)
    if not nonlinear:
        return hom_u, hom_ut
    grid = tables.grid
    f0 = _nonlinearity_hat(_inverse_half(grid, u_hat), tables, t, step)
    u_pred = hom_u + tables.IK1 * f0
    f1 = _nonlinearity_hat(_inverse_half(grid, u_pred), tables, t, step)
    favg = 0.5 * (f0 + f1)
    return hom_u + tables.IK1 * favg, hom_ut + tables.K1 * favg


def etd_step(state: tuple[SpectralField, SpectralField], dt: float,
             params: ModelParams, dealias: bool = True,
             nonlinear: bool = True) -> tuple[SpectralField, SpectralField]:
    """Advance one step; exact whenever the forcing vanishes."""
    if not 0 < dt <= 0.5:
        raise ValueError(f"dt must lie in (0, 0.5]; got {dt}")
    grid = state[0].grid
    new = _etd_step_arrays(state[0].coeffs, state[1].coeffs,
                           StepTables(grid, params, dt, dealias), 0.0, 0,
                           nonlinear)
    return tuple(SpectralField(grid, c) for c in new)


@dataclass
class Trajectory:
    """Result of every run (linear flow, integration, Picard map).

    ``l2``, ``dt_l2``, ``hsigma`` and ``lm`` are ``||u||_2``,
    ``||u_t||_2``, ``|u|_{H^sigma}`` and ``||u||_m`` at ``times``.
    ``states`` and ``final_state`` hold the coefficient arrays of
    ``(u, du/dt)``, laid out like ``SpectralField.coeffs``.
    """

    times: np.ndarray
    l2: np.ndarray
    dt_l2: np.ndarray
    hsigma: np.ndarray
    lm: np.ndarray
    params: ModelParams
    grid: Grid
    states: list[tuple[np.ndarray, np.ndarray]] | None = None
    final_state: tuple[np.ndarray, np.ndarray] | None = None
    blew_up: bool = False
    blowup_time: float | None = None

    def __post_init__(self):
        if len(self.times) == 0:
            raise ValueError("trajectory must contain at least one snapshot")
        if np.any(np.diff(self.times) <= 0) or self.times[0] != 0.0:
            raise ValueError("snapshot times must start at 0 and increase")
        norms = np.stack([self.l2, self.dt_l2, self.hsigma, self.lm])
        if np.any(norms < 0):
            raise ValueError("norms must be nonnegative")
        # a blown-up run may end on the runaway record
        if not self.blew_up and not np.all(np.isfinite(norms)):
            raise ValueError("norms must be finite unless the run blew up")

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


def _record_norms(grid: Grid, xi_sigma: np.ndarray, u_hat, ut_hat, m: float):
    """Norms ``(L2, dt L2, H^sigma seminorm, L^m)`` of a half-spectrum state."""
    u_phys = _inverse_half(grid, u_hat)
    lm = float((np.sum(np.abs(u_phys) ** m) * grid.cell_volume) ** (1.0 / m))
    return (_half_l2(grid, u_hat), _half_l2(grid, ut_hat),
            _half_l2(grid, xi_sigma * u_hat), lm)


def integrate(config: SolverConfig) -> Trajectory:
    """Run the exponential integrator over ``[0, t_end]``.

    ``t_end`` and ``snapshot_interval`` must both be whole numbers of
    steps ``dt`` (to 1e-9 relative).  Norms are recorded every
    ``snapshot_interval`` time units (default: every step up to 1200
    snapshots, then coarsened).  A blow-up signal truncates the
    trajectory and labels it, which is a normal outcome.
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

    u1 = make_data(config, grid)
    ut_hat = _forward_half(grid, u1.values)
    u_hat = np.zeros_like(ut_hat)

    times = [0.0]
    records = [_record_norms(grid, tables.xi_sigma, u_hat, ut_hat, params.m)]
    states = [(u_hat.copy(), ut_hat.copy())] if config.store_states else None
    ref = max(max(records[0]), ABS_FLOOR)

    blew_up = False
    blowup_time = None
    for step in range(1, n_steps + 1):
        t = step * config.dt
        try:
            u_hat, ut_hat = _etd_step_arrays(
                u_hat, ut_hat, tables, t, step,
                nonlinear=config.nonlinearity_enabled)
        except BlowUpSignal as sig:
            blew_up = True
            blowup_time = sig.time
            break
        if step % every == 0 or step == n_steps:
            rec = _record_norms(grid, tables.xi_sigma, u_hat, ut_hat, params.m)
            times.append(t)
            records.append(rec)
            if config.store_states:
                states.append((u_hat.copy(), ut_hat.copy()))
            if not all(np.isfinite(rec)) or max(rec) > BLOWUP_FACTOR * ref:
                blew_up = True
                blowup_time = t
                break

    return Trajectory.from_records(times, records, params, grid,
                                   states=states,
                                   final_state=(u_hat.copy(), ut_hat.copy()),
                                   blew_up=blew_up, blowup_time=blowup_time)


def zero_trajectory(config: SolverConfig) -> Trajectory:
    """All-zero trajectory on the snapshot times of ``config`` (dense)."""
    cfg = replace(config, data_amplitude=0.0, store_states=True,
                  snapshot_interval=config.dt, nonlinearity_enabled=False)
    return integrate(cfg)


# ---------------------------------------------------------------------------
# Decay-weighted supremum norm over a trajectory.

@dataclass(frozen=True)
class XTNorm:
    """Supremum over snapshots of the decay-weighted norm sum."""

    value: float
    l2_supremum: float
    hsigma_supremum: float
    dt_supremum: float


def _xt_terms(times, l2, hsigma, dt_l2, params: ModelParams):
    # Weights (1+t)^g, (1+t)^(g+1/2), (1+t)^(g+1), g the linear L2 decay rate.
    base = -decay_exponent(params, 0.0, 0)
    w = 1.0 + np.asarray(times)
    return w ** base * l2, w ** (base + 0.5) * hsigma, w ** (base + 1.0) * dt_l2


def xt_weighted_sums(times: np.ndarray, l2: np.ndarray, hsigma: np.ndarray,
                     dt_l2: np.ndarray, params: ModelParams) -> np.ndarray:
    """Weighted term sum per snapshot; its sup over time is the norm."""
    return sum(_xt_terms(times, l2, hsigma, dt_l2, params))


def xt_norm(traj: Trajectory, t_max: float | None = None) -> XTNorm:
    """Decay-weighted supremum norm of a trajectory.

    ``t_max`` restricts the supremum to snapshots with ``t <= t_max``.
    """
    sel = slice(None) if t_max is None else traj.times <= t_max
    times = traj.times[sel]
    if times.size == 0:
        raise ValueError("no snapshots in the requested time range")
    terms = _xt_terms(times, traj.l2[sel], traj.hsigma[sel], traj.dt_l2[sel],
                      traj.params)
    return XTNorm(float(np.max(sum(terms))),
                  *(float(np.max(term)) for term in terms))


def xt_distance(a: Trajectory, b: Trajectory) -> float:
    """Decay-weighted supremum distance between two state-storing trajectories."""
    if a.states is None or b.states is None:
        raise ValueError("both trajectories must store states")
    if len(a.times) != len(b.times) or not np.allclose(a.times, b.times):
        raise ValueError("trajectories must share snapshot times")
    grid = a.grid
    xs = grid.xi_mag ** a.params.sigma
    l2 = np.empty(len(a.times))
    hs = np.empty(len(a.times))
    dt = np.empty(len(a.times))
    for i, ((ua, uta), (ub, utb)) in enumerate(zip(a.states, b.states)):
        du = ua - ub
        dut = uta - utb
        l2[i] = _half_l2(grid, du)
        hs[i] = _half_l2(grid, xs * du)
        dt[i] = _half_l2(grid, dut)
    return float(np.max(xt_weighted_sums(a.times, l2, hs, dt, a.params)))
