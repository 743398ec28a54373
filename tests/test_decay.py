import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import linregress

from sigmaevo.data import PROFILES
from sigmaevo.decay import (_sample_times, check_rate, default_window,
                            fit_decay, run_linear, suggest_box_length,
                            DecayFit)
from sigmaevo.grid import (GridSpec, _half_energy, _half_l2_rows,
                           _inverse_half, _lm_norm, _multiplier_l2,
                           build_grid, transform_forward)
from sigmaevo.params import ModelParams
from sigmaevo.propagator import kernel_arrays, propagate_linear
from sigmaevo.solver import SolverConfig, Trajectory, integrate, make_data
from sigmaevo.theory import admissibility

from thread_checks import Injected, bounded, raise_on_call

PARAMS = ModelParams(n=1, sigma=1.0, alpha=0.5, p=4.0, m=1.0)


def synthetic_series(fn, t_end=2000.0, n=300):
    times = np.linspace(0.0, t_end, n)
    vals = fn(times)
    return Trajectory(times=times, l2=vals, dt_l2=vals, hsigma=vals, lm=vals,
                      params=PARAMS, grid=build_grid(GridSpec(1, 8, 1.0)))


def test_fit_recovers_exact_power_law():
    series = synthetic_series(lambda t: (1.0 + t) ** -0.25)
    fit = fit_decay(series, "u_L2", (10.0, 2000.0))
    assert abs(fit.slope + 0.25) < 1e-12
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_recovers_prefactor():
    series = synthetic_series(lambda t: 3.0 * (1.0 + t) ** -1.25)
    fit = fit_decay(series, "u_L2", (10.0, 2000.0))
    assert abs(fit.slope + 1.25) < 1e-12
    assert abs(fit.intercept - np.log(3.0)) < 1e-10


@settings(deadline=None)
@given(st.floats(-3.0, 0.5), st.floats(1e-3, 1e3), st.integers(0, 2 ** 32 - 1),
       st.floats(1.0, 1000.0), st.floats(1.1, 2.0))
def test_fit_is_ordinary_least_squares(slope, scale, seed, t_lo, span):
    # fit_decay does linregress's arithmetic in numpy; noisy power laws
    # over random windows must come out the same to 1e-14 relative.
    noise = np.random.default_rng(seed).uniform(0.5, 2.0, 300)
    series = synthetic_series(lambda t: scale * (1.0 + t) ** slope * noise)
    window = (t_lo, min(t_lo * span + 200.0, 2000.0))
    fit = fit_decay(series, "Hsigma_semi", window)
    sel = (series.times >= window[0]) & (series.times <= window[1])
    ref = linregress(np.log1p(series.times[sel]), np.log(series.hsigma[sel]))
    for got, want in ((fit.slope, ref.slope), (fit.intercept, ref.intercept),
                      (fit.stderr, ref.stderr),
                      (fit.r_squared, ref.rvalue ** 2)):
        assert abs(got - want) <= 1e-14 * abs(want)
    assert fit.n_samples == np.count_nonzero(sel)


def test_fit_window_validation():
    series = synthetic_series(lambda t: (1.0 + t) ** -0.5)
    with pytest.raises(ValueError, match="t >= 1"):
        fit_decay(series, "u_L2", (0.5, 100.0))
    with pytest.raises(ValueError, match="at least 20"):
        fit_decay(series, "u_L2", (1990.0, 2000.0))
    zero = synthetic_series(lambda t: np.zeros_like(t))
    with pytest.raises(ValueError, match="positive"):
        fit_decay(zero, "u_L2", (10.0, 2000.0))
    with pytest.raises(ValueError, match="quantity"):
        fit_decay(series, "energy", (10.0, 2000.0))


def make_fit(slope):
    return DecayFit(slope=slope, intercept=0.0, stderr=0.01,
                    window=(100.0, 1000.0), r_squared=0.999, n_samples=50)


def test_check_rate_verdicts():
    close = check_rate(make_fit(-0.26), PARAMS, "u_L2", 0.05)
    assert close.passed and close.sharp
    slow = check_rate(make_fit(-0.10), PARAMS, "u_L2", 0.05)
    assert not slow.passed
    fast = check_rate(make_fit(-0.90), PARAMS, "u_L2", 0.05)
    assert fast.passed and not fast.sharp
    with pytest.raises(ValueError, match="quantity"):
        check_rate(make_fit(-0.26), PARAMS, "Lm", 0.05)


def test_box_length_rule():
    # The suggested box makes the horizon exactly t_end.
    L = suggest_box_length(200.0, 1.0)
    assert 0.1 * (L / (2 * np.pi)) ** 2 == pytest.approx(200.0)
    assert default_window(200.0) == (20.0, 200.0)


def test_run_linear_zero_data():
    cfg = SolverConfig(params=PARAMS, grid=GridSpec(1, 256, 150.0), dt=0.1,
                       t_end=50.0, data_amplitude=0.0)
    series = run_linear(cfg)
    assert np.all(series.l2 == 0) and np.all(series.lm == 0)


def test_run_linear_decays_past_transient():
    # The norm peaks once the slow modes fill in (around t = 2.4 for
    # mean-carrying data) and is nonincreasing afterwards.
    gs = GridSpec(1, 4096, 500.0)
    cfg = SolverConfig(params=PARAMS, grid=gs, dt=0.1, t_end=600.0,
                       data_amplitude=1.0)
    series = run_linear(cfg)
    late = series.times >= 3.0
    assert np.all(np.diff(series.l2[late]) <= 1e-12)


def test_run_linear_resolution_independent():
    norms = []
    for n in (1024, 2048):
        cfg = SolverConfig(params=PARAMS, grid=GridSpec(1, n, 150.0), dt=0.1,
                           t_end=50.0, data_amplitude=1.0)
        series = run_linear(cfg, n_samples=60)
        norms.append(np.stack([series.l2, series.dt_l2, series.hsigma,
                               series.lm]))
    assert np.max(np.abs(norms[0] - norms[1])) <= 1e-10 * np.max(norms[1])


def test_run_linear_mean_zero_regression():
    # Dipole data loses the slowly decaying mean content; the measured
    # slope (about -0.75) is recorded as a regression bound.
    gs = GridSpec(1, 32768, 4000.0)
    cfg = SolverConfig(params=PARAMS, grid=gs, dt=0.1, t_end=1000.0,
                       data_amplitude=1.0, mean_zero=True)
    series = run_linear(cfg)
    fit = fit_decay(series, "u_L2", (100.0, 1000.0))
    assert fit.slope <= -0.7


def test_run_linear_final_state_is_linear_flow_at_t_end():
    cfg = SolverConfig(params=PARAMS, grid=GridSpec(1, 256, 150.0), dt=0.1,
                       t_end=50.0, data_amplitude=1.0)
    series = run_linear(cfg, n_samples=40)
    grid = series.grid
    expected = propagate_linear(transform_forward(make_data(cfg, grid)),
                                PARAMS.sigma, cfg.t_end)
    for got, want in zip(series.final_state, expected):
        assert np.max(np.abs(got - want.coeffs)) <= 1e-12 * np.max(
            np.abs(want.coeffs))


@pytest.mark.parametrize("t_end", [2.0, 100.0, 400.0, 1000.0])
def test_sample_times_end_at_t_end(t_end):
    # expm1(log1p(t_end)) is an ulp off t_end for each of these
    times = _sample_times(t_end, 200)
    assert times[0] == 0.0 and times[-1] == t_end
    assert np.all(np.diff(times) > 0)


def test_fit_window_counts_the_last_sample():
    # at t_end = 100 a last sample of 100.00000000000003 fell outside the
    # default window [10, 100]
    cfg = SolverConfig(params=PARAMS,
                       grid=GridSpec(1, 512, suggest_box_length(100.0, 1.0)),
                       dt=0.1, t_end=100.0, data_amplitude=1.0)
    series = run_linear(cfg, n_samples=60)
    fit = fit_decay(series, "u_L2", default_window(cfg.t_end))
    assert series.times[-1] == 100.0
    assert fit.n_samples == np.count_nonzero(series.times >= 10.0)


FAST = SolverConfig(params=PARAMS, grid=GridSpec(1, 256, 150.0), dt=0.1,
                   t_end=50.0, data_amplitude=1.0)


@pytest.mark.parametrize("eps", [1e-300, 1e-160, 1e200, 1e300])
def test_run_linear_norms_are_linear_in_the_amplitude(eps):
    # The norms scale the data by its peak, so no square underflows or
    # overflows at any amplitude; unscaled sums fail this outright.
    unit = run_linear(FAST, n_samples=40)
    scaled = run_linear(replace(FAST, data_amplitude=eps), n_samples=40)
    for name in ("u_L2", "dtu_L2", "Hsigma_semi", "Lm"):
        want = unit.quantity(name)
        got = scaled.quantity(name) / eps
        assert np.all(np.abs(got - want) <= 1e-12 * want), name


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([(1, 64), (2, 16), (3, 8)]), st.sampled_from(PROFILES),
       st.booleans(), st.integers(0, 2 ** 16), st.floats(1.0, 2.0),
       st.floats(1.0, 50.0), st.floats(-200.0, 200.0))
def test_run_linear_norms_are_the_formed_state_norms(shape, profile, mean_zero,
                                                     seed, sigma, t_end,
                                                     log_eps):
    # The kernel-energy sums must give the L2 norms of the states they
    # stand for.  3-D matters: a dot of N-d arrays is no scalar product.
    dim, points = shape
    params = ModelParams(n=dim, sigma=sigma, alpha=0.5, p=4.0, m=1.0)
    cfg = SolverConfig(params=params,
                       grid=GridSpec(dim, points,
                                     suggest_box_length(t_end, sigma)),
                       dt=0.1, t_end=t_end, data_amplitude=10.0 ** log_eps,
                       data_profile=profile, mean_zero=mean_zero, seed=seed)
    series = run_linear(cfg, n_samples=6)
    grid = series.grid
    u1_hat = transform_forward(make_data(cfg, grid)).coeffs
    k = grid.xi_mag ** (2.0 * sigma)
    for i, t in enumerate(series.times):
        _, K1, _, dK1 = kernel_arrays(k, t)
        u_hat = K1 * u1_hat
        want = (_half_l2_rows(grid, u_hat), _half_l2_rows(grid, dK1 * u1_hat),
                _half_l2_rows(grid, grid.xi_mag ** sigma * u_hat))
        got = (series.l2[i], series.dt_l2[i], series.hsigma[i])
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * w


def test_run_linear_final_state_is_the_kernel_tables_at_t_end():
    series = run_linear(FAST, n_samples=40)
    grid = series.grid
    u1_hat = transform_forward(make_data(FAST, grid)).coeffs
    _, K1, _, dK1 = kernel_arrays(grid.xi_mag ** (2.0 * PARAMS.sigma),
                                  series.times[-1])
    u, ut = series.final_state
    assert np.array_equal(u, K1 * u1_hat)
    assert np.array_equal(ut, dK1 * u1_hat)


def test_run_linear_final_state_outlives_the_run_buffers():
    first = run_linear(FAST, n_samples=40)
    kept = [a.copy() for a in first.final_state]
    assert not np.shares_memory(*first.final_state)
    run_linear(replace(FAST, data_amplitude=2.0), n_samples=40)
    for got, want in zip(first.final_state, kept):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n_samples", [2, 3, 40])
@pytest.mark.parametrize("shape", [(1, 256), (2, 16), (3, 8)])
def test_run_linear_is_bitwise_the_serial_loop(shape, n_samples):
    # The worker and the caller share one set of kernel tables; a slot or
    # ordering race would change some norm of some sample.
    dim, points = shape
    params = ModelParams(n=dim, sigma=1.0, alpha=0.5, p=4.0, m=1.5)
    cfg = SolverConfig(params=params,
                       grid=GridSpec(dim, points,
                                     suggest_box_length(50.0, 1.0)),
                       dt=0.1, t_end=50.0, data_amplitude=1.0)
    series = run_linear(cfg, n_samples=n_samples)
    grid = series.grid
    u1_hat = transform_forward(make_data(cfg, grid)).coeffs
    k = grid.xi_mag ** 2.0
    peak, energy = _half_energy(grid, u1_hat)
    scratch = np.empty_like(k)
    assert np.array_equal(series.times, _sample_times(50.0, n_samples))
    for i, t in enumerate(series.times):
        _, K1, _, dK1 = kernel_arrays(k, t)
        want = (_multiplier_l2(peak, K1, energy, scratch),
                _multiplier_l2(peak, dK1, energy, scratch),
                _multiplier_l2(peak, K1, energy * k, scratch),
                _lm_norm(grid, _inverse_half(grid, K1 * u1_hat), params.m))
        got = (series.l2[i], series.dt_l2[i], series.hsigma[i],
               series.lm[i])
        assert got == want, i


def test_run_linear_leaves_no_thread_running():
    before = threading.active_count()
    [result] = bounded(lambda: run_linear(FAST, n_samples=40))
    assert "error" not in result
    assert threading.active_count() == before


def test_run_linear_keeps_its_bits_under_thread_stress():
    # Three runs at once, six threads on a two-core machine, switching
    # every 10 us: a lost handoff would change some norm.
    configs = [replace(FAST, data_amplitude=a) for a in (1.0, 2.0, 3.0)]
    want = [run_linear(cfg, n_samples=40) for cfg in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = bounded(*(lambda cfg=cfg: run_linear(cfg, n_samples=40)
                            for cfg in configs))
    finally:
        sys.setswitchinterval(interval)
    for result, series in zip(results, want):
        got = result["value"]
        for name in ("u_L2", "dtu_L2", "Hsigma_semi", "Lm"):
            assert np.array_equal(got.quantity(name), series.quantity(name))


# 40 samples make 120 kernel sums and 40 L^m norms: the first failure
# stops the other thread mid-run, the last one after it has finished.
@pytest.mark.parametrize("name,call", [("_multiplier_l2", 5),
                                       ("_multiplier_l2", 120),
                                       ("_lm_norm", 1), ("_lm_norm", 3),
                                       ("_lm_norm", 40)])
def test_run_linear_error_on_either_thread_reaches_the_caller(monkeypatch,
                                                              name, call):
    import sigmaevo.decay as decay
    monkeypatch.setattr(decay, name,
                        raise_on_call(getattr(decay, name), call))
    before = threading.active_count()
    [result] = bounded(lambda: run_linear(FAST, n_samples=40))
    assert type(result.get("error")) is Injected
    assert threading.active_count() == before


def test_run_linear_kernel_sums_keep_the_callers_error_state():
    # The kernel sums run on the pool thread in a copy of the caller's
    # context: the kernels' underflow raises there as it would inline.
    # (The bump's own samples do not underflow, unlike the gaussian's.)
    with np.errstate(under="raise"), pytest.raises(FloatingPointError):
        run_linear(replace(FAST, data_profile="bump"), n_samples=40)


def test_run_linear_makes_every_transform_on_the_calling_thread(monkeypatch):
    # perfbench's tracer keeps one span stack, and its FFT count pins
    # n_samples + 1 transforms per linear run (1-D grids call rfft and
    # irfft, the others rfftn and irfftn).
    threads = []
    for name in ("rfft", "irfft", "rfftn", "irfftn"):
        def wrapped(*args, _fn=getattr(np.fft, name), **kwargs):
            threads.append(threading.current_thread())
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, wrapped)
    run_linear(FAST, n_samples=40)
    assert len(threads) == 41
    assert set(threads) == {threading.current_thread()}


def test_run_linear_memory_peak_is_its_live_set():
    # A linear-1d run (N = 2^16, L = 32000) holds two complex half tables
    # (u1_hat, u_hat), one field (work), nine float half tables (xi_mag,
    # k, energy, energy_sigma, scratch and the four of velocity_kernels)
    # and at the end the final u_t (one complex table).  Its peak adds
    # numpy's cast buffer of one float-times-complex product (bufsize
    # complex values, 128 KiB).  Measured 10.7 KB above that.  The
    # headroom is half a float table (128 KiB): a stored per-axis array
    # of the grid (two float tables) or a stored phase table (one)
    # exceeds it.
    n = 2 ** 16
    cfg = SolverConfig(params=PARAMS, grid=GridSpec(1, n, 32000.0), dt=0.1,
                       t_end=1000.0, data_amplitude=1.0)
    run_linear(cfg, n_samples=8)  # first-call imports are not the run's
    tracemalloc.start()
    try:
        run_linear(cfg, n_samples=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = 8 * (n // 2 + 1)
    live = 9 * table + 3 * 2 * table + 8 * n + 16 * np.getbufsize()
    assert peak <= live + table // 2


def test_linear_label_sees_ramp_before_turnover():
    # Short linear runs from rest end while L2 still ramps up; the label
    # must say so instead of always reading "decayed".
    for t_end in (1.0, 2.0):
        gs = GridSpec(1, 256, suggest_box_length(t_end, 1.0))
        cfg = SolverConfig(params=PARAMS, grid=gs, dt=0.1, t_end=t_end,
                           data_amplitude=1.0)
        assert run_linear(cfg).label == "growth-detected"
    cfg = SolverConfig(params=PARAMS, grid=GridSpec(1, 256, 150.0), dt=0.1,
                       t_end=50.0, data_amplitude=1.0)
    assert run_linear(cfg).label == "decayed"


def test_run_semilinear_zero_data():
    cfg = SolverConfig(params=PARAMS, grid=GridSpec(1, 256, 150.0), dt=0.1,
                       t_end=20.0, data_amplitude=0.0)
    series = integrate(cfg)
    assert np.all(series.l2 == 0)
    assert series.label == "decayed"
    assert admissibility(cfg.params).overall


def test_semilinear_label_sees_turnover_after_ramp():
    # From rest the L2 norm first ramps up (u ~ t u1), then decays; the
    # label used to compare with the first positive snapshot on the ramp.
    t_end = 200.0
    cfg = SolverConfig(params=PARAMS,
                       grid=GridSpec(1, 2048, suggest_box_length(t_end, 1.0)),
                       dt=0.1, t_end=t_end, data_amplitude=0.01)
    series = integrate(cfg)
    positive = series.l2[series.l2 > 0]
    assert series.l2[-1] > positive[0]
    assert series.l2[-1] < 0.5 * np.max(series.l2)
    assert series.label == "decayed"
    # the ramp alone never turned over
    peak = np.argmax(series.l2) + 1
    ramp = Trajectory(times=series.times[:peak], l2=series.l2[:peak],
                      dt_l2=series.dt_l2[:peak], hsigma=series.hsigma[:peak],
                      lm=series.lm[:peak], params=PARAMS, grid=series.grid)
    assert ramp.label == "growth-detected"


def test_run_semilinear_exploratory_below_threshold():
    # p = 2 sits below every admissible bound; the run is labeled, with
    # no claim attached, and a blow-up shows up as a truncated series.
    params = ModelParams(n=1, sigma=1.0, alpha=0.5, p=2.0, m=1.0)
    cfg = SolverConfig(params=params, grid=GridSpec(1, 256, 100.0), dt=0.1,
                       t_end=20.0, data_amplitude=1.0)
    series = integrate(cfg)
    assert series.label in ("decayed", "growth-detected")
    assert not admissibility(params).overall
