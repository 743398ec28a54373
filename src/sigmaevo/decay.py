"""Experiment harness: run simulations, fit decay slopes, check rates.

Norm time series from linear or semilinear runs are fitted by ordinary
least squares of ``log(norm)`` against ``log(1 + t)``.  Verdicts are
one-sided: the theoretical exponents are upper bounds on the norms, so a
measured slope at least as negative passes; a separate sharpness flag
records agreement within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import linregress

from .grid import GridSpec, _forward_half, build_grid
from .params import ModelParams
from .propagator import decay_exponent, kernel_arrays
from .solver import (SolverConfig, _check_horizon, _record_norms, integrate,
                     make_data)
from .theory import AdmissibilityReport, admissibility

__all__ = [
    "NormTimeSeries",
    "DecayFit",
    "RateVerdict",
    "SweepRow",
    "run_linear",
    "run_semilinear",
    "series_from_trajectory",
    "fit_decay",
    "check_rate",
    "sweep",
    "default_window",
    "suggest_box_length",
]

QUANTITIES = ("u_L2", "dtu_L2", "Hsigma_semi", "Lm")

# (seminorm order a, time derivatives j) per checkable quantity.
_RATE_KEYS = {"u_L2": (0.0, 0), "dtu_L2": (0.0, 1), "Hsigma_semi": (None, 0)}


@dataclass
class NormTimeSeries:
    """Time-stamped norms of one run, with provenance."""

    times: np.ndarray
    l2: np.ndarray
    dt_l2: np.ndarray
    hsigma: np.ndarray
    lm: np.ndarray
    params: ModelParams
    grid: GridSpec
    provenance: dict
    label: str = "decayed"
    truncated: bool = False

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("series times must be strictly increasing")
        norms = np.stack([self.l2, self.dt_l2, self.hsigma, self.lm])
        if np.any(norms < 0):
            raise ValueError("norms must be nonnegative")
        # a truncated series may end on the runaway record
        if not self.truncated and not np.all(np.isfinite(norms)):
            raise ValueError("norms must be finite unless the run blew up")

    def quantity(self, name: str) -> np.ndarray:
        try:
            return {"u_L2": self.l2, "dtu_L2": self.dt_l2,
                    "Hsigma_semi": self.hsigma, "Lm": self.lm}[name]
        except KeyError:
            raise ValueError(f"unknown quantity '{name}'") from None


@dataclass(frozen=True)
class DecayFit:
    """Least-squares slope of log(norm) vs log(1+t) over a window."""

    slope: float
    intercept: float
    stderr: float
    window: tuple[float, float]
    r_squared: float
    n_samples: int


@dataclass(frozen=True)
class RateVerdict:
    quantity: str
    slope: float
    expected: float
    tol: float
    passed: bool    # one-sided: measured decay at least as fast
    sharp: bool     # |slope - expected| <= tol


def suggest_box_length(t_end: float, sigma: float) -> float:
    """Box size keeping whole-space decay visible through ``t_end``."""
    return 2.0 * np.pi * (10.0 * t_end) ** (1.0 / (2.0 * sigma))


def default_window(t_end: float) -> tuple[float, float]:
    """Fit window skipping the transient: ``[0.1 t_end, t_end]``."""
    return (0.1 * t_end, t_end)


def _sample_times(t_end: float, n_samples: int) -> np.ndarray:
    # Log-spaced in (1 + t), starting at 0.
    return np.expm1(np.linspace(0.0, np.log1p(t_end), n_samples))


def run_linear(config: SolverConfig, n_samples: int = 200) -> NormTimeSeries:
    """Exact linear flow sampled at log-spaced times (no stepping error)."""
    _check_horizon(config)
    grid = build_grid(config.grid)
    params = config.params
    u1_hat = _forward_half(grid, make_data(config, grid).values)
    k = grid.half_xi_mag ** (2.0 * params.sigma)
    xi_sigma = grid.half_xi_mag ** params.sigma

    times = _sample_times(config.t_end, n_samples)
    records = []
    for t in times:
        _, K1, _, dK1 = kernel_arrays(k, float(t))
        records.append(_record_norms(grid, xi_sigma, K1 * u1_hat,
                                     dK1 * u1_hat, params.m))
    arr = np.array(records)
    return NormTimeSeries(times=times, l2=arr[:, 0], dt_l2=arr[:, 1],
                          hsigma=arr[:, 2], lm=arr[:, 3], params=params,
                          grid=config.grid, provenance={"kind": "linear"})


def _label(series_l2: np.ndarray, truncated: bool) -> str:
    # A run from rest first ramps up (u ~ t u1); it has decayed once the
    # L2 norm turned over, i.e. ends below its maximum.
    if truncated or 0 < series_l2[-1] >= np.max(series_l2):
        return "growth-detected"
    return "decayed"


def series_from_trajectory(traj, config: SolverConfig) -> NormTimeSeries:
    """Wrap an integration's norm records as a labeled series."""
    prov = {"kind": "semilinear",
            "admissibility": admissibility(config.params),
            "blowup_time": traj.blowup_time}
    series = NormTimeSeries(times=traj.times, l2=traj.l2, dt_l2=traj.dt_l2,
                            hsigma=traj.hsigma, lm=traj.lm,
                            params=config.params, grid=config.grid,
                            provenance=prov, truncated=traj.blew_up)
    series.label = _label(series.l2, series.truncated)
    return series


def run_semilinear(config: SolverConfig) -> NormTimeSeries:
    """Full model run; admissibility is reported, not enforced."""
    return series_from_trajectory(integrate(config), config)


def fit_decay(series: NormTimeSeries, quantity: str,
              window: tuple[float, float]) -> DecayFit:
    """OLS fit of log(norm) against log(1+t) inside ``window``."""
    t_lo, t_hi = window
    if t_lo < 1.0:
        raise ValueError(f"window must start at t >= 1; got {t_lo}")
    norm = series.quantity(quantity)
    sel = (series.times >= t_lo) & (series.times <= t_hi)
    if np.count_nonzero(sel) < 20:
        raise ValueError(
            f"window [{t_lo}, {t_hi}] holds {np.count_nonzero(sel)} samples; "
            "need at least 20")
    y = norm[sel]
    if np.any(y <= 0):
        raise ValueError("norms must be positive inside the fit window")
    res = linregress(np.log1p(series.times[sel]), np.log(y))
    return DecayFit(slope=float(res.slope), intercept=float(res.intercept),
                    stderr=float(res.stderr), window=(float(t_lo), float(t_hi)),
                    r_squared=float(res.rvalue ** 2),
                    n_samples=int(np.count_nonzero(sel)))


def check_rate(fit: DecayFit, params: ModelParams, quantity: str,
               tol: float) -> RateVerdict:
    """Compare a fitted slope against the predicted decay exponent."""
    if quantity not in _RATE_KEYS:
        raise ValueError(f"unknown quantity '{quantity}'")
    a, j = _RATE_KEYS[quantity]
    if a is None:
        a = params.sigma
    expected = decay_exponent(params, a, j)
    passed = fit.slope <= expected + tol
    sharp = abs(fit.slope - expected) <= tol
    return RateVerdict(quantity=quantity, slope=fit.slope, expected=expected,
                       tol=tol, passed=passed, sharp=sharp)


@dataclass
class SweepRow:
    overrides: dict
    params: ModelParams | None = None
    fits: dict | None = None
    verdicts: dict | None = None
    admissibility: AdmissibilityReport | None = None
    label: str = ""
    error: str | None = None


def _apply_overrides(base: SolverConfig, overrides: dict) -> SolverConfig:
    params_fields = {"n", "sigma", "alpha", "p", "m"}
    p_over = {k: v for k, v in overrides.items() if k in params_fields}
    c_over = {k: v for k, v in overrides.items() if k not in params_fields}
    cfg = base
    if p_over:
        cfg = replace(cfg, params=replace(base.params, **p_over))
    if c_over:
        cfg = replace(cfg, **c_over)
    return cfg


def sweep(points: list[dict], base_config: SolverConfig, kind: str = "linear",
          window: tuple[float, float] | None = None, tol: float = 0.05,
          quantities: tuple[str, ...] = ("u_L2", "dtu_L2", "Hsigma_semi"),
          ) -> list[SweepRow]:
    """Run each parameter point independently; failures stay per-row."""
    if kind not in ("linear", "semilinear"):
        raise ValueError(f"unknown sweep kind '{kind}'")
    rows = []
    for overrides in points:
        row = SweepRow(overrides=dict(overrides))
        try:
            cfg = _apply_overrides(base_config, overrides)
            row.params = cfg.params
            row.admissibility = admissibility(cfg.params)
            series = run_linear(cfg) if kind == "linear" else run_semilinear(cfg)
            row.label = series.label
            win = window or default_window(cfg.t_end)
            row.fits = {}
            row.verdicts = {}
            if not series.truncated:
                for q in quantities:
                    fit = fit_decay(series, q, win)
                    row.fits[q] = fit
                    row.verdicts[q] = check_rate(fit, cfg.params, q, tol)
        except Exception as exc:  # keep the sweep going, record the failure
            row.error = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows
