"""Decay measurements: the exact linear flow, slope fits, rate verdicts.

``run_linear`` samples the linear flow at log-spaced times.  Its
``u_hat = K1 u1_hat`` is exact per mode, so the L2, ``u_t`` and
``H^sigma`` norms come from the kernels alone:
``peak sqrt(sum w K^2 E)`` with ``w`` the half-spectrum Parseval weight
and ``E`` the data's mode energies, tabulated once per run on the data
scaled by its coefficient peak (which keeps the norms linear in the
amplitude over the whole float range).  The ``L^m`` norm takes one
inverse transform per sample, into a buffer of the run.  These two
halves of a sample overlap: the kernel sums and the move of the kernel
tables to the next sample run on one pool thread, while the calling
thread makes the sample's transform (so a tracer with one span stack
sees them all).  The calling thread forms the field from the tables
before it hands them over, so the norms are bitwise those of the serial
loop.

Norm time series from linear or semilinear runs are fitted by ordinary
least squares of ``log(norm)`` against ``log(1 + t)``.  Verdicts are
one-sided: the theoretical exponents are upper bounds on the norms, so a
measured slope at least as negative passes; a separate sharpness flag
records agreement within tolerance.  The auto rules for the box length
and the fit window live here too.  Parameter sweeps are CLI runs: each
point is resolved, run and judged exactly like a single run.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass

import numpy as np

from .grid import (_half_energy, _inverse_half, _lm_norm, _multiplier_l2,
                   build_grid)
from .params import ModelParams, ValidationError
from .propagator import decay_exponent, velocity_kernels
from .solver import SolverConfig, Trajectory, _check_horizon, _data_hat

__all__ = [
    "DecayFit",
    "RateVerdict",
    "run_linear",
    "fit_decay",
    "check_rate",
    "default_window",
    "suggest_box_length",
]

# (seminorm order a, time derivatives j) per checkable quantity.
_RATE_KEYS = {"u_L2": (0.0, 0), "dtu_L2": (0.0, 1), "Hsigma_semi": (None, 0)}


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
    """Fit window skipping the transient: ``[max(1, 0.1 t_end), t_end]``.

    ``fit_decay`` needs ``t >= 1``, so the window is empty for
    ``t_end <= 1``.
    """
    return (max(1.0, 0.1 * t_end), t_end)


def _sample_times(t_end: float, n_samples: int) -> np.ndarray:
    # Log-spaced in (1 + t) from 0 to exactly t_end, which
    # expm1(log1p(t_end)) misses by an ulp for many t_end.
    times = np.expm1(np.linspace(0.0, np.log1p(t_end), n_samples))
    times[-1] = t_end
    return times


def run_linear(config: SolverConfig, n_samples: int = 200) -> Trajectory:
    """Exact linear flow sampled at log-spaced times (no stepping error).

    For each sample the calling thread forms ``u_hat = K1 u1_hat``.  A
    pool thread then takes the L2, ``u_t`` and ``H^sigma`` norms as
    kernel sums against the data's mode energies (``_half_energy``) and
    moves the kernel tables to the next sample's time, in a copy of the
    caller's context (numpy's error state included), while the calling
    thread takes ``L^m`` from one inverse transform of ``u_hat`` into a
    buffer of the run; the next sample starts once both are done.  An
    exception on either thread reaches the caller once both are done.
    ``final_state`` is the state at the last sample, ``t_end``.
    """
    # imported here: it loads logging, which no other path needs
    from concurrent.futures import ThreadPoolExecutor

    if n_samples < 2:  # the series runs from 0 to t_end
        raise ValidationError(f"n_samples must be >= 2; got {n_samples}")
    _check_horizon(config)
    grid = build_grid(config.grid)
    params = config.params
    u1_hat = _data_hat(config, grid)
    k = grid.xi_mag ** (2.0 * params.sigma)
    peak, energy = _half_energy(grid, u1_hat)
    energy_sigma = energy * k
    u_hat = np.empty_like(u1_hat)
    work = np.empty(grid.shape)
    scratch = np.empty_like(k)
    norms = np.empty((n_samples, 4))
    times = _sample_times(config.t_end, n_samples)
    # Every array is allocated here: the pool thread's would land in a
    # malloc arena of its own and grow the peak memory.
    kernels = velocity_kernels(k, times)
    K1, dK1 = next(kernels)  # overwritten in place by each next()

    def spectral_half(i):
        norms[i, :3] = (_multiplier_l2(peak, K1, energy, scratch),
                        _multiplier_l2(peak, dK1, energy, scratch),
                        _multiplier_l2(peak, K1, energy_sigma, scratch))
        if i + 1 < n_samples:
            next(kernels)
    context = contextvars.copy_context()
    with ThreadPoolExecutor(1) as pool:
        for i in range(n_samples):
            np.multiply(K1, u1_hat, out=u_hat)
            sums = pool.submit(context.run, spectral_half, i)
            _inverse_half(grid, u_hat, out=work)
            norms[i, 3] = _lm_norm(grid, work, params.m, out=work)
            sums.result()
    # the tables stay at t_end: nothing moves them past the last sample
    return Trajectory.from_records(times, norms, params, grid,
                                   final_state=(u_hat, dK1 * u1_hat))


def fit_decay(series: Trajectory, quantity: str,
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
    x, y = np.log1p(series.times[sel]), np.log(y)
    # The arithmetic of scipy.stats.linregress.
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    with np.errstate(invalid="ignore"):  # r = 0/0 for a constant series
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    return DecayFit(slope=float(slope),
                    intercept=float(np.mean(y) - slope * np.mean(x)),
                    stderr=float(np.sqrt((1 - r ** 2) * ssym / ssxm
                                         / (x.size - 2))),
                    window=(float(t_lo), float(t_hi)),
                    r_squared=float(r ** 2), n_samples=x.size)


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
