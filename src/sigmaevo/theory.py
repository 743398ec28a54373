"""Closed-form exponent bookkeeping for the semilinear model.

Everything here is arithmetic on the parameter tuple (n, sigma, alpha,
p, m): the critical exponent, the admissible range of p (with its
dimension branch), interpolation exponents and the boundedness
exponents of the smoothing operator.  Comparisons against bounds are
made at tolerance 1e-12, honoring strict vs non-strict inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import ModelParams

__all__ = [
    "AdmissibilityReport",
    "critical_exponent",
    "admissibility",
    "gn_theta",
]

TOL = 1e-12


def _ge(x: float, bound: float) -> bool:
    return x >= bound - TOL


def _le(x: float, bound: float) -> bool:
    return x <= bound + TOL


def _gt(x: float, bound: float) -> bool:
    return x > bound + TOL


def _p_crit(n: int, m: float, sigma: float) -> float:
    return 1.0 + 2.0 * m * sigma / n


def critical_exponent(n: int, m: float, sigma: float) -> float:
    """Threshold power ``1 + 2 m sigma / n`` separating the small-data
    global-existence range from blow-up for the local power nonlinearity.

    This is ``p_crit`` of the admissibility report, and it carries no
    ``alpha``.  The smoothing ``I_alpha`` moves the critical exponent;
    the alpha-dependent ``p_integrability = 1 + (2 sigma + alpha) m / n``
    is the bound that ``admissibility``'s ``overall`` requires.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1; got {n}")
    if not 1.0 <= m < 2.0:
        raise ValueError(f"m must lie in [1, 2); got {m}")
    if sigma < 1:
        raise ValueError(f"sigma must be >= 1; got {sigma}")
    return _p_crit(n, m, sigma)


def gn_theta(q: float, n: int, sigma: float) -> float:
    """Interpolation exponent ``(n / sigma)(1/2 - 1/q)``.

    Callers check membership in [0, 1] themselves.
    """
    if not 1.0 < q < np.inf:
        raise ValueError(f"q must lie in (1, inf); got {q}")
    return (n / sigma) * (0.5 - 1.0 / q)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Truth values and bounds for the small-data global existence range."""

    params: ModelParams
    p_crit: float
    p_lower: float
    p_lower_ok: bool
    p_upper: float          # +inf in the low-dimension branch
    p_upper_ok: bool
    dim_bound: float        # threshold on n for the high-dimension branch
    in_low_dim_branch: bool
    dim_ok: bool
    p_integrability: float  # strict lower bound making Duhamel decay summable
    p_integrability_ok: bool
    gn_theta_s2: float
    gn_theta_s2_ok: bool
    gn_theta_sm: float
    gn_theta_sm_ok: bool
    riesz_q_s2: float
    riesz_q_s2_ok: bool
    riesz_q_sm: float
    riesz_q_sm_ok: bool
    overall: bool
    warnings: list[str] = field(default_factory=list)


def _dimension_bound(sigma: float, m: float, alpha: float) -> float:
    if m >= 2.0:
        return np.inf
    return float(
        (4.0 * sigma + np.sqrt(16.0 * sigma * (sigma + m * (2.0 - m) * alpha)))
        / (2.0 * (2.0 - m)))


def _theta_checked(name: str, q: float, n: int, sigma: float,
                   warnings: list[str]) -> tuple[float, bool]:
    """Interpolation exponent at ``q`` and whether it lies in [0, 1]; NaN
    and not ok when ``q <= 1``.  Failures are appended to ``warnings``."""
    if q <= 1.0:
        warnings.append(f"interpolation exponent {name} is undefined for "
                        f"q = {q:.6g} (needs q > 1)")
        return np.nan, False
    theta = gn_theta(q, n, sigma)
    ok = -TOL <= theta <= 1.0 + TOL
    if not ok:
        warnings.append(
            f"interpolation exponent {name} = {theta:.6g} lies outside [0, 1]")
    return theta, ok


def admissibility(params: ModelParams) -> AdmissibilityReport:
    """Evaluate every admissibility condition at ``params``.

    A report is always produced; hypothesis failures of the smoothing
    boundedness and interpolation exponents are surfaced as warnings,
    not hard failures.
    """
    n, sig, alpha, p, m = (params.n, params.sigma, params.alpha,
                           params.p, params.m)
    warnings: list[str] = []

    p_crit = _p_crit(n, m, sig)
    p_lower = 2.0 / m + 2.0 * alpha / n
    p_lower_ok = _ge(p, p_lower)

    in_low_dim = n <= 2.0 * sig + TOL
    dim_bound = _dimension_bound(sig, m, alpha)
    if in_low_dim:
        p_upper = np.inf
        p_upper_ok = True
        dim_ok = True
    else:
        p_upper = (n + 2.0 * alpha) / (n - 2.0 * sig)
        p_upper_ok = _le(p, p_upper)
        dim_ok = _le(n, dim_bound)

    p_integ = 1.0 + (2.0 * sig + alpha) * m / n
    p_integ_ok = _gt(p, p_integ)

    q_s2 = 2.0 * n / (n + 2.0 * alpha)
    q_sm = m * n / (n + m * alpha)
    q_s2_ok = (q_s2 > 1.0 + TOL) and (q_s2 < n / alpha - TOL)
    q_sm_ok = (q_sm > 1.0 + TOL) and (q_sm < n / alpha - TOL)
    for name, q, ok in (("q_s2", q_s2, q_s2_ok), ("q_sm", q_sm, q_sm_ok)):
        if not ok:
            warnings.append(
                f"smoothing boundedness hypothesis fails for {name} = {q:.6g} "
                f"(needs q in (1, n/alpha) = (1, {n / alpha:.6g}))")

    theta_s2, theta_s2_ok = _theta_checked(
        "theta_s2", 2.0 * n * p / (n + 2.0 * alpha), n, sig, warnings)
    theta_sm, theta_sm_ok = _theta_checked(
        "theta_sm", m * n * p / (n + m * alpha), n, sig, warnings)

    overall = p_lower_ok and p_upper_ok and dim_ok and p_integ_ok

    return AdmissibilityReport(
        params=params, p_crit=p_crit,
        p_lower=p_lower, p_lower_ok=p_lower_ok,
        p_upper=p_upper, p_upper_ok=p_upper_ok,
        dim_bound=dim_bound, in_low_dim_branch=bool(in_low_dim), dim_ok=dim_ok,
        p_integrability=p_integ, p_integrability_ok=p_integ_ok,
        gn_theta_s2=theta_s2, gn_theta_s2_ok=theta_s2_ok,
        gn_theta_sm=theta_sm, gn_theta_sm_ok=theta_sm_ok,
        riesz_q_s2=q_s2, riesz_q_s2_ok=q_s2_ok,
        riesz_q_sm=q_sm, riesz_q_sm_ok=q_sm_ok,
        overall=overall, warnings=warnings)
