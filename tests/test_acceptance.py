"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from sigmaevo.checks import (RIESZ_ALPHAS, integral_inequality_check,
                             kernel_oracle_suite, riesz_cross_check)
from sigmaevo.decay import check_rate, fit_decay, run_linear
from sigmaevo.grid import GridSpec, RealField, build_grid
from sigmaevo.operators import lebesgue_norm, sobolev_seminorm
from sigmaevo.params import ModelParams
from sigmaevo.picard import picard_apply
from sigmaevo.solver import (SolverConfig, integrate, make_data, xt_distance,
                             xt_norm, zero_trajectory)
from sigmaevo.theory import admissibility, critical_exponent, gn_theta

from full_layout import full_from_half, full_inverse

REFERENCE = ModelParams(n=1, sigma=1.0, alpha=0.5, p=4.0, m=1.0)


def report(num, passed, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}",
          flush=True)
    assert passed, detail


@pytest.fixture(scope="module")
def linear_reference_series():
    cfg = SolverConfig(params=REFERENCE, grid=GridSpec(1, 32768, 4000.0),
                       dt=0.1, t_end=1000.0, data_amplitude=1.0)
    start = time.perf_counter()
    series = run_linear(cfg)
    return series, time.perf_counter() - start


@pytest.fixture(scope="module")
def semilinear_reference_trajectory():
    cfg = SolverConfig(params=REFERENCE, grid=GridSpec(1, 16384, 2000.0),
                       dt=0.25, t_end=1000.0, data_amplitude=0.01,
                       snapshot_interval=0.25)
    start = time.perf_counter()
    traj = integrate(cfg)
    return traj, time.perf_counter() - start


def test_criterion_1_kernel_exactness():
    start = time.perf_counter()
    result = kernel_oracle_suite()
    elapsed = time.perf_counter() - start
    ok = result["passed"] and elapsed < 1.0
    report(1, ok,
           f"kernels vs ODE oracle max rel err {result['max_rel_error']:.2e} "
           f"(tol 1e-08), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_2_linear_decay_rates(linear_reference_series):
    series, elapsed = linear_reference_series
    window = (100.0, 1000.0)
    targets = {"u_L2": (-0.25, 0.05), "dtu_L2": (-1.25, 0.10),
               "Hsigma_semi": (-0.75, 0.10)}
    slopes = {}
    ok = elapsed < 60.0
    for quantity, (expected, tol) in targets.items():
        fit = fit_decay(series, quantity, window)
        slopes[quantity] = fit.slope
        ok = ok and abs(fit.slope - expected) <= tol
    report(2, ok,
           "linear slopes " + ", ".join(f"{q}={s:.4f}" for q, s in slopes.items())
           + f"; targets -0.25/-1.25/-0.75, runtime {elapsed:.1f}s (< 60s)")


def test_criterion_3_l2_boundedness(linear_reference_series):
    series, _ = linear_reference_series
    # starts from rest, so the data norm is the initial velocity norm
    runs = {"gaussian": np.max(series.l2) / series.dt_l2[0]}
    for profile in ("noise_bandlimited", "bump"):
        cfg = SolverConfig(params=REFERENCE, grid=GridSpec(1, 1024, 150.0),
                           dt=0.1, t_end=50.0, data_amplitude=1.0,
                           data_profile=profile, seed=3)
        s = run_linear(cfg, n_samples=80)
        runs[profile] = np.max(s.l2) / s.dt_l2[0]
    worst = max(runs.values())
    report(3, worst <= 1.05,
           f"sup_t |u|_L2 / |u1|_L2 = {worst:.4f} (<= 1.05) over "
           f"{sorted(runs)}")


def test_criterion_4_riesz_cross_validation():
    start = time.perf_counter()
    errors = {alpha: riesz_cross_check(alpha) for alpha in RIESZ_ALPHAS}
    elapsed = time.perf_counter() - start
    ok = max(errors.values()) <= 0.02 and elapsed < 30.0
    report(4, ok,
           "smoothing operator multiplier-vs-quadrature rel L2 "
           + ", ".join(f"alpha={a}: {e:.3%}" for a, e in errors.items())
           + f" (tol 2%), runtime {elapsed:.1f}s (< 30s)")


def test_criterion_5_semilinear_rates(semilinear_reference_trajectory):
    traj, elapsed = semilinear_reference_trajectory
    ok = not traj.blew_up and elapsed < 300.0
    slopes = {}
    for quantity in ("u_L2", "dtu_L2", "Hsigma_semi"):
        fit = fit_decay(traj, quantity, (100.0, 1000.0))
        verdict = check_rate(fit, REFERENCE, quantity, 0.10)
        slopes[quantity] = fit.slope
        ok = ok and verdict.passed
    ratio = xt_norm(traj) / xt_norm(traj, t_max=1.0)
    ok = ok and ratio <= 2.0
    report(5, ok,
           "semilinear slopes "
           + ", ".join(f"{q}={s:.4f}" for q, s in slopes.items())
           + f"; weighted-norm ratio {ratio:.3f} (<= 2), "
           f"runtime {elapsed:.1f}s (< 300s)")


def test_criterion_6_contraction():
    cfg = SolverConfig(params=REFERENCE, grid=GridSpec(1, 2048, 200.0),
                       dt=0.02, t_end=5.0, data_amplitude=0.01,
                       store_states=True, snapshot_interval=0.02)
    grid = build_grid(cfg.grid)
    u1 = make_data(cfg, grid)
    iters = [zero_trajectory(cfg)]
    for _ in range(5):
        iters.append(picard_apply(iters[-1], u1, cfg))
    d = [xt_distance(iters[i + 1], iters[i]) for i in range(5)]
    ratios = [d[k] / d[k - 1] for k in range(1, 5)]
    ok = all(r <= 0.5 for r in ratios)
    report(6, ok,
           "fixed-point iteration ratios "
           + ", ".join(f"{r:.2e}" for r in ratios) + " (all <= 0.5)")


def test_criterion_7_self_convergence():
    def final_state(dt):
        cfg = SolverConfig(params=REFERENCE, grid=GridSpec(1, 2048, 200.0),
                           dt=dt, t_end=5.0, data_amplitude=0.01,
                           snapshot_interval=5.0)
        traj = integrate(cfg)
        return full_from_half(traj.grid, traj.final_state[0])

    ref = final_state(0.0125)
    errs = [np.linalg.norm(final_state(dt) - ref) for dt in (0.1, 0.05, 0.025)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    order = float(np.mean(orders))
    report(7, abs(order - 2.0) <= 0.3,
           f"stepper self-convergence order {order:.2f} (2.0 +- 0.3)")


def test_criterion_8_exponent_bookkeeping():
    ok = critical_exponent(1, 1.0, 1.0) == 3.0
    rep = admissibility(REFERENCE)
    ok = ok and rep.overall and rep.p_lower == pytest.approx(3.0)
    ok = ok and rep.in_low_dim_branch and rep.p_upper == np.inf
    ok = ok and rep.p_integrability == pytest.approx(3.5)
    ok = ok and any("q_sm" in w for w in rep.warnings)
    limit = admissibility(ModelParams(n=1, sigma=1.0, alpha=1e-9, p=4.0,
                                      m=1.0))
    ok = ok and abs(limit.p_integrability - 3.0) <= 1e-8
    report(8, ok,
           "critical exponent 3, reference point admissible "
           f"(bounds {rep.p_lower}/{rep.p_integrability}), smoothing-free "
           "limit matches within 1e-8")


def test_criterion_9_integral_inequality():
    t_grid = np.logspace(0.0, 4.0, 9)
    frozen = {(2.0, 0.5): 1.04, (1.5, 1.2): 2.72, (3.0, 3.0): 1.30}
    ratios = {}
    ok = True
    for (a, b), bound in frozen.items():
        ratio = integral_inequality_check(a, b, t_grid)
        ratios[(a, b)] = ratio
        ok = ok and 0.0 < ratio <= bound
    report(9, ok,
           "convolution/bound ratios "
           + ", ".join(f"{k}: {v:.3f}<={frozen[k]}" for k, v in ratios.items())
           + " on t in [1, 1e4]")


def _band_limited(grid, rng):
    n = grid.spec.points_per_axis
    j = grid.indices[0]
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    band = (np.abs(j) <= n / 8) & (j != 0)
    vals = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
    coeffs[band] = vals
    for idx in np.nonzero(band)[0]:
        coeffs[int(-j[idx]) % n] = np.conj(coeffs[idx])
    return RealField(grid, full_inverse(grid, coeffs))


def test_criterion_10_gn_scaling_and_flags():
    grid = build_grid(GridSpec(1, 256, 40.0))
    rng = np.random.default_rng(123)
    q, n, sigma = 4.0, 1, 1.0
    theta = gn_theta(q, n, sigma)
    worst_dev = 0.0
    for _ in range(200):
        y = _band_limited(grid, rng)
        lam = float(rng.uniform(0.05, 20.0))
        scaled = RealField(grid, lam * y.values)

        def ratio(field):
            return lebesgue_norm(field, q) / (
                sobolev_seminorm(field, sigma) ** theta
                * lebesgue_norm(field, 2.0) ** (1.0 - theta))

        r0, r1 = ratio(y), ratio(scaled)
        worst_dev = max(worst_dev, abs(r1 - r0) / r0)
    ok = worst_dev <= 1e-12

    # interpolation exponents outside [0, 1] are flagged on a (p, n) grid
    flags_consistent = True
    saw_out_of_range = False
    for n_dim in (1, 2, 3):
        for p in (2.0, 4.0, 6.0, 9.0):
            params = ModelParams(n=n_dim, sigma=1.0, alpha=0.5, p=p, m=1.0)
            rep = admissibility(params)
            th = gn_theta(2.0 * n_dim * p / (n_dim + 1.0), n_dim, 1.0)
            in_range = 0.0 <= th <= 1.0
            if rep.gn_theta_s2_ok != in_range:
                flags_consistent = False
            if not in_range:
                saw_out_of_range = True
                if not any("theta" in w for w in rep.warnings):
                    flags_consistent = False
    ok = ok and flags_consistent and saw_out_of_range
    report(10, ok,
           f"interpolation ratio scale-invariant to {worst_dev:.1e} "
           "(<= 1e-12) over 200 fields; out-of-range exponents flagged "
           "on the (p, n) grid")
