import functools
import gc
import itertools
import re
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sigmaevo.grid import (GridSpec, SpectralField, build_grid,
                           transform_forward, _forward_half, _half_l2_rows,
                           _inverse_half, _lm_norm)
from sigmaevo.operators import lebesgue_norm, riesz_multiplier
from sigmaevo.params import ModelParams, ValidationError
from sigmaevo.propagator import (duhamel_weight, kernel_arrays,
                                 propagate_linear)
from sigmaevo.solver import (ABS_FLOOR, INT_POWER_MAX, BlowUpSignal,
                             SolverConfig, StepTables, Trajectory,
                             _StepWork, _band, _etd_step_arrays,
                             _floored_power, _nonlinearity_hat, _power_bits,
                             _scalar_power,
                             etd_step, horizon_limit, integrate, make_data,
                             nonlinearity,
                             xt_distance, xt_norm, zero_trajectory)
import sigmaevo.solver as solver

from full_layout import field_from_function
from thread_checks import Injected, bounded, raise_on_call

PARAMS = ModelParams(n=1, sigma=1.0, alpha=0.5, p=4.0, m=1.0)


def small_config(**kw):
    base = dict(params=PARAMS, grid=GridSpec(1, 256, 100.0), dt=0.1,
                t_end=5.0, data_amplitude=0.01)
    base.update(kw)
    return SolverConfig(**base)


# --- data profiles -------------------------------------------------------

def test_gaussian_peak_and_norms():
    gs = GridSpec(1, 4096, 200.0)
    cfg = SolverConfig(params=PARAMS, grid=gs, dt=0.1, t_end=1.0,
                       data_amplitude=1.0)
    u1 = make_data(cfg)
    assert u1.values.max() == 1.0  # x = 0 is on the lattice
    assert abs(lebesgue_norm(u1, 1.0) - np.sqrt(2 * np.pi)) < 1e-6
    assert abs(lebesgue_norm(u1, 2.0) - np.pi ** 0.25) < 1e-6


def test_gaussian_amplitude_scaling():
    cfg = small_config(data_amplitude=0.01)
    assert abs(make_data(cfg).values.max() - 0.01) < 1e-15


def test_bump_support_and_peak():
    cfg = small_config(data_profile="bump", data_amplitude=2.0)
    u1 = make_data(cfg)
    x = u1.grid.coords[0]
    assert np.all(u1.values[np.abs(x) >= 1.0] == 0.0)
    assert abs(u1.values.max() - 2.0) < 1e-12


def test_noise_is_seeded_and_bandlimited():
    cfg = small_config(data_profile="noise_bandlimited", seed=42,
                       data_amplitude=0.5)
    a = make_data(cfg)
    b = make_data(cfg)
    assert np.array_equal(a.values, b.values)
    assert abs(np.max(np.abs(a.values)) - 0.5) < 1e-12
    coeffs = transform_forward(a).coeffs
    j = a.grid.indices[0][:coeffs.size]  # half spectrum, j = 0..N/2
    outside = np.abs(j) > a.grid.spec.points_per_axis / 8
    assert np.max(np.abs(coeffs[outside])) <= 1e-12 * np.max(np.abs(coeffs))
    other = make_data(small_config(data_profile="noise_bandlimited", seed=43,
                                   data_amplitude=0.5))
    assert not np.array_equal(a.values, other.values)


def test_profiles_carry_mean_unless_flagged():
    for profile in ("gaussian", "bump", "noise_bandlimited"):
        cfg = small_config(data_profile=profile, data_amplitude=1.0)
        assert abs(np.mean(make_data(cfg).values)) > 1e-8
        flagged = small_config(data_profile=profile, data_amplitude=1.0,
                               mean_zero=True)
        u1 = make_data(flagged)
        assert abs(np.mean(u1.values)) <= 1e-14 * np.max(np.abs(u1.values))


def test_unknown_profile_rejected():
    with pytest.raises(ValueError, match="profile"):
        small_config(data_profile="square")


# --- nonlinearity --------------------------------------------------------

def test_nonlinearity_of_zero():
    grid = build_grid(GridSpec(1, 64, 2 * np.pi))
    from sigmaevo.grid import RealField
    out = nonlinearity(RealField(grid, np.zeros(grid.shape)), PARAMS)
    assert np.all(out.values == 0)


def test_nonlinearity_trig_identity():
    # |cos(2x)|^2 = 1/2 + cos(4x)/2; the mean drops, and the smoothing
    # multiplier scales the 4-mode by 4^(-1/2).
    params = ModelParams(n=1, sigma=1.0, alpha=0.5, p=2.0, m=1.0)
    grid = build_grid(GridSpec(1, 128, 2 * np.pi))
    u = field_from_function(grid, lambda x: np.cos(2 * x))
    out = nonlinearity(u, params)
    expected = 0.25 * np.cos(4 * grid.coords[0])
    assert np.max(np.abs(out.values - expected)) < 1e-12


def test_nonlinearity_homogeneity():
    params = ModelParams(n=1, sigma=1.0, alpha=0.5, p=2.5, m=1.0)
    grid = build_grid(GridSpec(1, 128, 50.0))
    rng = np.random.default_rng(31)
    from sigmaevo.grid import RealField
    u = RealField(grid, rng.standard_normal(grid.shape))
    lam = 3.0
    scaled = nonlinearity(RealField(grid, lam * u.values), params).values
    plain = nonlinearity(u, params).values
    assert np.max(np.abs(scaled - lam ** params.p * plain)) \
        <= 1e-12 * np.max(np.abs(scaled))


def two_thirds_mask(grid):
    """The two-thirds rule on the half spectrum: ``|j| <= N/3`` on every
    axis, as the leading ``N/2+1`` last-axis columns of the full mask."""
    n = grid.spec.points_per_axis
    j = np.meshgrid(*grid.indices, indexing="ij", sparse=True)
    full = functools.reduce(np.logical_and, [np.abs(a) <= n / 3.0 for a in j])
    return full[..., :n // 2 + 1]


def band_mask(spec, dealias=True):
    """How many blocks of the band hold each mode of the half spectrum."""
    count = np.zeros(build_grid(spec).xi_mag.shape, np.uint8)
    for block in _band(spec, dealias):
        count[block] += 1
    return count


def test_dealias_mask_idempotent():
    spec = GridSpec(2, 16, 3.0)
    mask = band_mask(spec) == 1
    assert np.array_equal(mask, two_thirds_mask(build_grid(spec)))
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(mask.shape) + 1j * rng.standard_normal(mask.shape)
    once = coeffs.copy()
    once[~mask] = 0.0
    twice = once.copy()
    twice[~mask] = 0.0
    assert np.array_equal(once, twice)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.sampled_from([8, 16, 32, 64, 128, 256]))
def test_band_blocks_are_disjoint_and_make_the_two_thirds_mask(dim, n):
    spec = GridSpec(dim, n, 10.0)
    count = band_mask(spec)
    assert count.max() == 1  # disjoint
    assert np.array_equal(count == 1, two_thirds_mask(build_grid(spec)))
    assert len(_band(spec, True)) == 2 ** (dim - 1)
    assert np.all(band_mask(spec, dealias=False) == 1)


def test_nonlinearity_overflow_raises_blowup():
    params = ModelParams(n=1, sigma=1.0, alpha=0.5, p=4.0, m=1.0)
    grid = build_grid(GridSpec(1, 64, 10.0))
    from sigmaevo.grid import RealField
    huge = RealField(grid, np.full(grid.shape, 1e200))
    with pytest.raises(BlowUpSignal, match="overflow in pointwise power"):
        nonlinearity(huge, params)


def test_non_finite_state_raises_blowup():
    grid = build_grid(GridSpec(1, 64, 10.0))
    u = np.zeros(grid.xi_mag.shape, dtype=complex)
    u[3] = np.nan
    state = (SpectralField(grid, u), SpectralField(grid, np.zeros_like(u)))
    with pytest.raises(BlowUpSignal, match="non-finite state in nonlinearity"):
        etd_step(state, 0.1, PARAMS)


ROW_KINDS = {"ordinary": 1.0, "nan": np.nan, "inf": np.inf, "overflow": 1e200}


def _signal_or_bytes(call):
    try:
        return call().tobytes()
    except BlowUpSignal as sig:
        return (sig.time, sig.step, sig.reason)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.lists(st.sampled_from(sorted(ROW_KINDS)), min_size=1,
                         max_size=3), min_size=1, max_size=6),
       st.sampled_from([2.5, 3.0, 4.0]), st.integers(0, 2 ** 32 - 1))
def test_nonlinearity_rows_are_the_rows_one_by_one(kinds, p, seed):
    # Each row is ordinary or carries NaN, inf or overflowing samples (some
    # rows several kinds): a block raises the first signal of the rows taken
    # one by one, with its time and step, and otherwise gives their bits.
    grid = build_grid(GridSpec(1, 64, 10.0))
    tables = StepTables(grid, replace(PARAMS, p=p), 0.05, True)
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((len(kinds),) + grid.shape)
    for row, row_kinds in zip(rows, kinds):
        at = rng.choice(grid.shape[0], len(row_kinds), replace=False)
        row[at] = [ROW_KINDS[kind] for kind in row_kinds]
    times = 0.05 * np.arange(7, 7 + len(rows))

    def one_by_one():
        return np.concatenate([
            _nonlinearity_hat(row[np.newaxis].copy(), tables, (t,), 7 + j)
            for j, (row, t) in enumerate(zip(rows, times))])

    want = _signal_or_bytes(one_by_one)
    got = _signal_or_bytes(
        lambda: _nonlinearity_hat(rows.copy(), tables, times, 7))
    assert got == want


def test_nonlinearity_and_step_leave_their_inputs_alone():
    grid = build_grid(GridSpec(1, 128, 20.0))
    u = field_from_function(grid, lambda x: np.exp(-x * x) - 0.3)
    kept = u.values.copy()
    nonlinearity(u, PARAMS)
    assert np.array_equal(u.values, kept)
    state = (transform_forward(u), transform_forward(u))
    kept = [f.coeffs.copy() for f in state]
    etd_step(state, 0.1, PARAMS)
    assert all(np.array_equal(f.coeffs, c) for f, c in zip(state, kept))


# --- integer powers ------------------------------------------------------

@settings(deadline=None, max_examples=200)
@given(st.integers(2, INT_POWER_MAX),
       hnp.arrays(np.float64, st.integers(1, 32),
                  elements=st.floats(1e-300, 1e300)))
def test_integer_powers_match_np_power(p, x):
    # p - 1 rounded products stay within (p - 1) eps relative of the exact
    # power, and np.power within about an ulp of it (measured over 2e6
    # log-uniform samples: at most p - 1 ulp apart for p <= 5, 5 for p = 8)
    got = _floored_power(x.copy(), float(p), np.empty_like(x))
    with np.errstate(over="ignore", under="ignore"):
        want = np.power(x, float(p))
    tiny, big = np.finfo(float).tiny, np.finfo(float).max
    # overflow to inf on either side counts as the largest double
    got, want = np.minimum(got, big), np.minimum(want, big)
    normal = want >= tiny
    assert np.all(np.abs(got - want)[normal]
                  <= (p - 1) * np.finfo(float).eps * want[normal])
    assert np.all(np.abs(got - want)[~normal] < tiny)


@pytest.mark.parametrize("p", range(2, INT_POWER_MAX + 1))
def test_integer_powers_need_no_floor(p):
    # A base below ABS_FLOOR gives +0 with or without the floor, since its
    # square underflows; every other base is left alone by the floor.
    x = np.array([0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e-301,
                  np.nextafter(ABS_FLOOR, 0.0), ABS_FLOOR,
                  np.nextafter(ABS_FLOOR, 1.0), 1e-299, 1e-160, 1.5e-154,
                  0.5, 1.0, 3.0, 1e300])
    got = _floored_power(x.copy(), float(p), np.empty_like(x))
    floored = np.maximum(x, ABS_FLOOR)
    want = _floored_power(floored, float(p), np.empty_like(x))
    assert got.tobytes() == want.tobytes()
    assert not np.any(np.signbit(got))


@pytest.mark.parametrize("p", range(2, INT_POWER_MAX + 1))
def test_integer_power_overflow_is_silent_inf(p):
    a = np.array([1e300, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _floored_power(a, float(p), np.empty_like(a))
    assert a[0] == np.inf and a[1] == 1.0


def _base_copy_power(a, bits):
    """Left-to-right binary powering in ``a`` from a copy of the base."""
    base = a.copy()
    for bit in bits:
        a *= a
        if bit == "1":
            a *= base
    return a


@settings(deadline=None, max_examples=300)
@given(st.integers(2, INT_POWER_MAX),
       hnp.arrays(np.float64, st.integers(1, 32), elements=st.one_of(
           st.just(0.0), st.floats(5e-324, 2.2e-308),
           st.floats(0.0, 1e300))))
def test_power_without_a_base_copy_is_the_base_copy_power_bitwise(p, x):
    # the running power kept in scratch up to the last '1' bit has the
    # products of powering in place from a copy of the base: zeros,
    # subnormals and bases whose power overflows to inf included
    got = _floored_power(x.copy(), float(p), np.empty_like(x))
    with np.errstate(over="ignore", under="ignore"):
        want = _base_copy_power(x.copy(), _power_bits(float(p)))
    assert got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=300)
@given(st.integers(2, INT_POWER_MAX), st.floats(-200, 150),
       hnp.arrays(np.float64, st.integers(1, 64),
                  elements=st.floats(0.0, 10.0)))
def test_scalar_power_of_the_peak_is_the_peak_of_the_power(p, exponent, x):
    # rounding is monotone, so the products on the largest sample give
    # bitwise the largest power, overflow to inf and underflow included
    x = x * 10.0 ** exponent
    want = _floored_power(x.copy(), float(p), np.empty_like(x)).max()
    got = _scalar_power(float(x.max()), _power_bits(float(p)))
    assert np.float64(got).tobytes() == want.tobytes()


# --- stepping ------------------------------------------------------------

def test_step_exact_on_linear_problem():
    grid = build_grid(GridSpec(1, 128, 20.0))
    u1 = transform_forward(field_from_function(grid,
                                               lambda x: np.exp(-x * x)))
    zero = transform_forward(field_from_function(grid, lambda x: 0.0 * x))
    stepped = etd_step((zero, u1), 0.1, PARAMS, nonlinear=False)
    exact = propagate_linear(u1, PARAMS.sigma, 0.1)
    for got, want in zip(stepped, exact):
        assert np.max(np.abs(got.coeffs - want.coeffs)) \
            <= 1e-14 * max(np.max(np.abs(want.coeffs)), 1e-300)


def test_integrate_zero_amplitude_is_zero():
    traj = integrate(small_config(data_amplitude=0.0))
    assert np.all(traj.l2 == 0) and np.all(traj.dt_l2 == 0)


def test_integrate_matches_propagator_with_nonlinearity_off():
    cfg = small_config(nonlinearity_enabled=False, store_states=True,
                       snapshot_interval=0.5, data_amplitude=1.0)
    traj = integrate(cfg)
    u1_hat = transform_forward(make_data(cfg, traj.grid))
    for i, t in enumerate(traj.times):
        u, ut = propagate_linear(u1_hat, PARAMS.sigma, float(t))
        got_u, got_ut = traj.states[i]
        scale = max(np.max(np.abs(u.coeffs)), 1e-300)
        assert np.max(np.abs(got_u - u.coeffs)) <= 1e-10 * scale
        assert np.max(np.abs(got_ut - ut.coeffs)) \
            <= 1e-10 * np.max(np.abs(ut.coeffs))


def test_horizon_precondition():
    cfg = small_config(t_end=5.0)
    assert horizon_limit(cfg) == pytest.approx(0.1 * (100.0 / (2 * np.pi)) ** 2)
    with pytest.raises(ValueError, match="horizon"):
        integrate(small_config(t_end=400.0))


def test_final_time_must_be_whole_number_of_steps():
    with pytest.raises(ValueError, match="whole number of steps"):
        integrate(small_config(t_end=1.0, dt=0.3))
    # 0.3 / 0.1 rounds to 2.9999999999999996 in binary; still three steps
    traj = integrate(small_config(t_end=0.3, dt=0.1))
    assert traj.times[-1] == pytest.approx(0.3, rel=1e-12)


def test_snapshot_interval_must_be_whole_number_of_steps():
    # 0.15 used to be rounded to one step: norms every 0.1, 11 rows
    with pytest.raises(ValueError, match="snapshot_interval.*whole number"):
        integrate(small_config(t_end=1.0, snapshot_interval=0.15))
    traj = integrate(small_config(t_end=1.0, snapshot_interval=0.2))
    assert np.allclose(traj.times, np.arange(6) * 0.2, rtol=0, atol=1e-12)


@pytest.mark.parametrize("interval", [np.nan, np.inf, -np.inf])
def test_non_finite_snapshot_interval_is_refused(interval):
    # refused as input naming the key, not as a failed int() conversion
    with pytest.raises(ValidationError, match="snapshot_interval"):
        integrate(small_config(t_end=1.0, snapshot_interval=interval))


def test_step_size_is_refused_as_input():
    grid = build_grid(GridSpec(1, 64, 20.0))
    zero = transform_forward(field_from_function(grid, lambda x: 0.0 * x))
    with pytest.raises(ValidationError, match="dt"):
        etd_step((zero, zero), 0.7, PARAMS)


def test_blowup_is_labeled_and_deterministic():
    params = ModelParams(n=1, sigma=1.0, alpha=0.5, p=2.0, m=1.0)
    cfg = SolverConfig(params=params, grid=GridSpec(1, 256, 100.0), dt=0.1,
                       t_end=20.0, data_amplitude=10.0)
    a = integrate(cfg)
    b = integrate(cfg)
    assert a.blew_up and b.blew_up
    assert a.blowup.time == b.blowup.time
    assert a.blowup.step == b.blowup.step == 18
    assert a.blowup.reason == "runaway or non-finite norms"
    assert len(a.times) == len(b.times)


def test_blown_up_run_leaves_nothing_for_the_cyclic_collector():
    # A signal kept with its traceback holds integrate's frame, which
    # holds the signal: a cycle that keeps the run's tables and step
    # buffers alive until the cyclic collector runs.
    cfg = small_config(grid=GridSpec(1, 1024, 60.0), data_amplitude=50.0,
                       t_end=4.0)
    gc.collect()
    gc.disable()
    try:
        traj = integrate(cfg)
        assert traj.blowup.step == 3
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert traj.blowup.__traceback__ is None


@pytest.mark.parametrize("p, amplitude, reason", [
    (2.0, 10.0, "runaway or non-finite norms"),       # cut on a record
    (4.0, 1e80, "overflow in pointwise power"),       # cut in mid-step
])
def test_blown_up_dense_run_ends_on_its_last_snapshot(p, amplitude, reason):
    params = ModelParams(n=1, sigma=1.0, alpha=0.5, p=p, m=1.0)
    cfg = SolverConfig(params=params, grid=GridSpec(1, 256, 100.0), dt=0.1,
                       t_end=20.0, data_amplitude=amplitude,
                       store_states=True, snapshot_interval=0.1)
    traj = integrate(cfg)
    assert traj.blowup.reason == reason
    assert all(np.array_equal(a, b)
               for a, b in zip(traj.final_state, traj.states[-1]))
    # the block allocated for all 201 rows is cut to the recorded ones
    assert len(traj.times) < 201
    assert traj.states.shape == (len(traj.times), 2) + traj.grid.xi_mag.shape


def test_step_cut_in_mid_step_keeps_the_last_completed_state():
    # records every 10 steps; the pointwise power overflows in step 2
    params = ModelParams(n=1, sigma=1.0, alpha=0.5, p=2.0, m=1.0)
    cfg = SolverConfig(params=params, grid=GridSpec(1, 256, 100.0), dt=0.1,
                       t_end=2.0, data_amplitude=1e154, snapshot_interval=1.0)
    traj = integrate(cfg)
    assert (traj.blowup.step, traj.blowup.reason) \
        == (2, "overflow in pointwise power")
    # a run of one step ends on the state after that step (its record
    # trips the runaway check, which cuts nothing)
    one_step = integrate(replace(cfg, t_end=0.1))
    assert all(np.array_equal(a, b)
               for a, b in zip(traj.final_state, one_step.final_state))


@pytest.mark.parametrize("spec, alpha", [(GridSpec(1, 256, 100.0), 0.5),
                                         (GridSpec(3, 16, 40.0), 1.0)])
@pytest.mark.parametrize("forcing", ["predictor", "corrector"])
def test_blowup_in_either_forcing_keeps_the_last_completed_state(
        monkeypatch, spec, alpha, forcing):
    # The step reads its input state until both forcings are formed and
    # writes into it only afterwards, so a signal from either forcing of
    # step 3 leaves the state after step 2, bit for bit.
    params = ModelParams(n=spec.dim, sigma=1.0, alpha=alpha, p=3.0, m=1.0)
    cfg = SolverConfig(params=params, grid=spec, dt=0.1, t_end=1.0,
                       data_amplitude=0.5, snapshot_interval=0.5)
    two_steps = integrate(replace(cfg, t_end=0.2))
    fail_at = {"predictor": 5, "corrector": 6}[forcing]  # step 3's calls
    calls = []

    def forcing_then_signal(*args, **kwargs):
        out = _nonlinearity_hat(*args, **kwargs)
        calls.append(None)
        if len(calls) == fail_at:
            raise BlowUpSignal(0.3, 3, "injected")
        return out
    monkeypatch.setattr(solver, "_nonlinearity_hat", forcing_then_signal)
    traj = integrate(cfg)
    assert (traj.blowup.step, traj.blowup.reason) == (3, "injected")
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(traj.final_state, two_steps.final_state))


def test_stored_states_are_separate_and_stay_put():
    cfg = small_config(t_end=1.0, store_states=True, snapshot_interval=0.1)
    traj = integrate(cfg)
    arrays = [a for pair in [*traj.states, traj.final_state] for a in pair]
    assert not any(np.shares_memory(a, b)
                   for a, b in itertools.combinations(arrays, 2))
    for steps in (1, 2, 3):
        short = integrate(replace(cfg, t_end=steps * cfg.dt))
        assert all(np.array_equal(a, b)
                   for a, b in zip(traj.states[steps], short.final_state))


def test_stored_states_are_one_block_of_the_recorded_rows():
    # 10 steps recorded every 3: steps 0, 3, 6 and 9, and the last one
    cfg = small_config(t_end=1.0, store_states=True, snapshot_interval=0.3)
    traj = integrate(cfg)
    assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0],
                       rtol=0, atol=1e-12)
    assert traj.states.shape == (5, 2) + traj.grid.xi_mag.shape
    u1_hat = transform_forward(make_data(cfg, traj.grid)).coeffs
    assert not np.any(traj.states[0, 0])
    assert traj.states[0, 1].tobytes() == u1_hat.tobytes()
    for t, state in zip(traj.times[1:], traj.states[1:]):
        short = integrate(replace(cfg, t_end=t))
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(state, short.final_state))


@pytest.mark.parametrize("params, spec", [
    (PARAMS, GridSpec(1, 256, 100.0)),
    (ModelParams(n=2, sigma=1.0, alpha=0.5, p=3.0, m=1.0),
     GridSpec(2, 32, 60.0)),
    (ModelParams(n=1, sigma=1.0, alpha=0.5, p=2.5, m=1.5),  # np.power path
     GridSpec(1, 256, 100.0)),
])
def test_integrate_matches_public_steps_bitwise(params, spec):
    # At 1e-200 and 1e200 (nonlinearity off) the sums of the L2 squares,
    # and of the L^1.5 powers, leave [1e-250, inf): those records take
    # the rescue, one field at a time and as rows of a block.
    for amplitude, nonlinear in ((0.1, True), (1e-200, False),
                                 (1e200, False)):
        cfg = SolverConfig(params=params, grid=spec, dt=0.1, t_end=2.0,
                           data_amplitude=amplitude, snapshot_interval=0.1,
                           nonlinearity_enabled=nonlinear, store_states=True)
        _assert_records_are_the_state_norms(cfg)


def _assert_records_are_the_state_norms(cfg):
    """``integrate``'s records equal the one-field norms of states made by
    public steps, and the block norms of its stored states, bitwise."""
    traj = integrate(cfg)
    grid, params, nonlinear = traj.grid, cfg.params, cfg.nonlinearity_enabled
    xi_sigma = grid.xi_mag ** params.sigma

    def norms(u, ut):
        return (_half_l2_rows(grid, u), _half_l2_rows(grid, ut),
                _half_l2_rows(grid, xi_sigma * u),
                _lm_norm(grid, _inverse_half(grid, u), params.m))

    ut = transform_forward(make_data(cfg, grid))
    with np.errstate(over="ignore", under="ignore"):
        plain = np.sum(np.abs(ut.coeffs) ** 2)
    assert (1e-250 <= plain < np.inf) == nonlinear
    state = (SpectralField(grid, np.zeros_like(ut.coeffs)), ut)
    want = [norms(state[0].coeffs, state[1].coeffs)]
    for _ in range(len(traj.times) - 1):
        state = etd_step(state, cfg.dt, params, nonlinear=nonlinear)
        want.append(norms(state[0].coeffs, state[1].coeffs))
    got = np.stack([traj.l2, traj.dt_l2, traj.hsigma, traj.lm], axis=1)
    assert np.array_equal(got, np.array(want))
    u, ut = traj.states[:, 0], traj.states[:, 1]
    rows = np.stack([_half_l2_rows(grid, u), _half_l2_rows(grid, ut),
                     _half_l2_rows(grid, u, xi_sigma),
                     _lm_norm(grid, _inverse_half(grid, u), params.m)], axis=1)
    assert np.array_equal(got, rows)


def test_integrate_two_dimensional():
    params = ModelParams(n=2, sigma=1.0, alpha=0.5, p=3.0, m=1.0)
    cfg = SolverConfig(params=params, grid=GridSpec(2, 32, 60.0), dt=0.1,
                       t_end=3.0, data_amplitude=0.1, snapshot_interval=0.5)
    traj = integrate(cfg)
    assert not traj.blew_up
    assert np.all(np.isfinite(traj.l2))
    assert traj.l2[-1] < traj.dt_l2[0]  # decays below the data norm


def _full_layout_step(u_hat, ut_hat, grid, params, dt, dealias, t, step):
    """Reference: one step on full half-spectrum tables, with the Riesz
    symbol times a boolean two-thirds mask and every product over the
    whole half spectrum, in the order of the module docstring."""
    k = grid.xi_mag ** (2.0 * params.sigma)
    A, K1, dA, dK1 = kernel_arrays(k, dt)
    IK1 = duhamel_weight(k, dt)
    riesz = riesz_multiplier(grid.xi_mag, params.alpha)
    if dealias:
        riesz = riesz * two_thirds_mask(grid)

    def forcing(v):
        a = np.abs(_inverse_half(grid, v))
        if not np.all(np.isfinite(a)):
            raise BlowUpSignal(t, step, "non-finite state in nonlinearity")
        a = _floored_power(a, params.p, np.empty_like(a))
        if not np.all(np.isfinite(a)):
            raise BlowUpSignal(t, step, "overflow in pointwise power")
        return _forward_half(grid, a) * riesz

    new_u = A * u_hat + K1 * ut_hat
    f0 = forcing(u_hat)
    f1 = forcing(IK1 * f0 + new_u)
    favg = (f0 + f1) * 0.5
    return (new_u + IK1 * favg,
            dA * u_hat + dK1 * ut_hat + K1 * favg)


@pytest.mark.parametrize("spec, p, amplitude", [
    (GridSpec(1, 64, 20.0), 3.0, 0.5),
    (GridSpec(1, 64, 20.0), 2.5, 0.5),
    (GridSpec(2, 16, 20.0), 3.0, 0.5),
    (GridSpec(3, 16, 20.0), 3.0, 0.5),
    (GridSpec(3, 8, 20.0), 4.0, 1e80),    # the power overflows
    (GridSpec(1, 64, 20.0), 5.0, 0.5),    # power bits '01'
    (GridSpec(1, 64, 20.0), 7.0, 0.5),    # power bits '11'
    (GridSpec(3, 16, 20.0), 5.0, 0.5),
    (GridSpec(3, 16, 20.0), 7.0, 0.5),
])
@pytest.mark.parametrize("dealias", [True, False])
def test_band_step_is_the_full_layout_step_bitwise(spec, p, amplitude,
                                                   dealias):
    params = ModelParams(n=spec.dim, sigma=1.0, alpha=0.5, p=p, m=1.0)
    grid = build_grid(spec)
    rng = np.random.default_rng(spec.dim + 7)
    state = [amplitude * (rng.standard_normal(grid.xi_mag.shape)
                          + 1j * rng.standard_normal(grid.xi_mag.shape))
             for _ in range(2)]
    tables = StepTables(grid, params, 0.1, dealias)
    work = _StepWork(tables)
    for buf, c in zip(work.pairs[0], state):
        np.copyto(buf, c)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _signal_or_bytes(lambda: np.stack(_full_layout_step(
            *state, grid, params, 0.1, dealias, 0.7, 7)))
        got = _signal_or_bytes(lambda: np.stack(_etd_step_arrays(
            *work.pairs[0], tables, work, 0.7, 7, True, out=work.pairs[1])))
    assert got == want
    assert isinstance(want, tuple) == (amplitude > 1)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(
    st.just(dim), st.sampled_from([8, 16, 32, 64, 128][:6 - dim]))),
       st.booleans())
def test_second_forcing_row_lives_in_the_field(dim_n, dealias):
    # f1's band row is the memory of the field of samples, which is made to
    # fit it also when the band is the whole half spectrum; it shares none
    # with the state pairs or f0 (the step's bits on this layout are
    # test_band_step_is_the_full_layout_step_bitwise's)
    dim, n = dim_n
    spec = GridSpec(dim, n, 20.0)
    params = ModelParams(n=dim, sigma=1.0, alpha=0.5, p=3.0, m=1.0)
    tables = StepTables(build_grid(spec), params, 0.1, dealias)
    work = _StepWork(tables)
    f0, f1 = work.forcing
    assert f1.size == f0.size == tables.riesz_mult.size
    assert np.shares_memory(f1, work.field)
    lo, hi = np.lib.array_utils.byte_bounds(work.field.base)
    f1_lo, f1_hi = np.lib.array_utils.byte_bounds(f1)
    assert lo <= f1_lo and f1_hi <= hi
    assert not any(np.shares_memory(f1, a)
                   for a in (f0,) + work.pairs[0] + work.pairs[1])


# --- concurrent callers --------------------------------------------------

THREAD_GRIDS = [(GridSpec(3, 16, 40.0), 1.0),
                (GridSpec(1, 256, 100.0), 0.5),
                (GridSpec(2, 32, 60.0), 0.5)]


def _assert_alone_and_concurrent_agree(run):
    """``run()`` on the calling thread has the bits of two calls of it at
    once on two other threads; returns the first."""
    alone = run()
    for result in bounded(run, run):
        _assert_same_run(result["value"], alone)
    return alone


def _assert_same_run(a, b):
    for name in ("times", "l2", "dt_l2", "hsigma", "lm"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert all(x.tobytes() == y.tobytes()
               for x, y in zip(a.final_state, b.final_state))
    assert (a.states is None) == (b.states is None)
    if a.states is not None:
        assert a.states.tobytes() == b.states.tobytes()
    cut = [t.blowup and (t.blowup.time, t.blowup.step, t.blowup.reason)
           for t in (a, b)]
    assert cut[0] == cut[1]


@pytest.mark.parametrize("spec, alpha", THREAD_GRIDS)
@pytest.mark.parametrize("p, dealias, nonlinear", [
    (3.0, True, True), (3.0, False, True), (4.0, True, True),
    (4.0, False, True), (2.5, True, True), (2.5, False, True),
    (3.0, True, False)])
def test_concurrent_integrate_keeps_the_bits(spec, alpha, p, dealias,
                                             nonlinear):
    # Two runs at once, on two threads, each keep the bits of a run
    # alone: no step state lives at module level.
    params = ModelParams(n=spec.dim, sigma=1.0, alpha=alpha, p=p, m=1.0)
    cfg = SolverConfig(params=params, grid=spec, dt=0.1, t_end=2.0,
                       data_amplitude=0.5, dealias=dealias,
                       nonlinearity_enabled=nonlinear, store_states=True,
                       snapshot_interval=0.3)
    assert not _assert_alone_and_concurrent_agree(
        lambda: integrate(cfg)).blew_up


@pytest.mark.parametrize("p, amplitude, N, L, t_end, reason", [
    (2.0, 10.0, 256, 100.0, 20.0, "runaway or non-finite norms"),
    (4.0, 1e80, 256, 100.0, 2.0, "overflow in pointwise power"),
    (2.0, 1e155, 64, 40.0, 2.0, "non-finite state in nonlinearity"),
])
def test_concurrent_integrate_blowups_match_the_inline_run(p, amplitude, N, L,
                                                          t_end, reason):
    # a blow-up on another thread is the same signal, at the same step
    params = ModelParams(n=1, sigma=1.0, alpha=0.5, p=p, m=1.0)
    cfg = SolverConfig(params=params, grid=GridSpec(1, N, L), dt=0.1,
                       t_end=t_end, data_amplitude=amplitude,
                       store_states=True, snapshot_interval=0.5)

    def run():
        # np.errstate is per thread: each run silences its own overflows
        with np.errstate(over="ignore", invalid="ignore"):
            return integrate(cfg)
    assert _assert_alone_and_concurrent_agree(run).blowup.reason == reason


def test_concurrent_integrate_callers_keep_their_bits_under_thread_stress():
    # Three runs at once, switching every 10 us: state shared between
    # runs would change some norm or state.
    spec, alpha = THREAD_GRIDS[0]
    params = ModelParams(n=3, sigma=1.0, alpha=alpha, p=3.0, m=1.0)
    configs = [SolverConfig(params=params, grid=spec, dt=0.1, t_end=1.0,
                            data_amplitude=a, snapshot_interval=0.1)
               for a in (0.5, 1.0, 1.5)]
    want = [integrate(cfg) for cfg in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = bounded(*(lambda cfg=cfg: integrate(cfg)
                            for cfg in configs))
    finally:
        sys.setswitchinterval(interval)
    for result, traj in zip(results, want):
        _assert_same_run(result["value"], traj)


@pytest.mark.parametrize("case", ["normal", "blow-up", "advance", "power"])
def test_concurrent_integrate_leaves_no_thread_running(monkeypatch, case):
    # a run starts no thread, and an error in mid-step reaches the caller
    cfg = small_config(t_end=1.0)
    if case == "blow-up":
        cfg = small_config(data_amplitude=1e80)
    elif case == "advance":
        # the step's free flow, one row of M(dt) per call: the 4th call is
        # step 2's u_t row, in the corrector
        monkeypatch.setattr(StepTables, "flow",
                            raise_on_call(StepTables.flow, 4))
    elif case == "power":
        monkeypatch.setattr(solver, "_floored_power",
                            raise_on_call(solver._floored_power, 5))
    before = threading.active_count()
    [result] = bounded(lambda: integrate(cfg))
    if case in ("advance", "power"):
        assert type(result.get("error")) is Injected
    else:
        assert result["value"].blew_up == (case == "blow-up")
    assert threading.active_count() == before


def test_integrate_transform_count(monkeypatch):
    # perfbench pins the transforms per run
    cfg = SolverConfig(params=ModelParams(n=2, sigma=1.0, alpha=0.5, p=3.0,
                                          m=1.0),
                       grid=GridSpec(2, 32, 60.0), dt=0.1, t_end=1.0,
                       data_amplitude=0.5, snapshot_interval=0.3)
    calls = []
    for name in ("rfft", "irfft", "rfftn", "irfftn"):
        def wrapped(*args, _fn=getattr(np.fft, name), **kwargs):
            calls.append(name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, wrapped)
    integrate(cfg)
    # 10 steps of 4 transforms, 5 records and the data's transform
    assert len(calls) == 46


def test_integrate_memory_peak_is_its_live_set():
    # A 3-D run holds its tables (xi_mag, K1, dA, dK1: 4 float half
    # tables, at sigma = 1 xi_sigma is xi_mag, and A is formed in the
    # step's scratch; riesz_mult and IK1 on the band: 2 float band rows),
    # two state pairs (4 complex tables), the first forcing (1 complex
    # band row), one field of samples, whose memory the second forcing's
    # band row shares, and at the peak the two complex temporaries of one
    # irfftn.  The band is 43 x 43 x 22 of the 64 x 64 x 33 half spectrum.
    # Measured about 8 KB above that (20,708,354 B).  The headroom is half
    # a float table (540 KiB): a stored A, a full riesz_mult or IK1 kept
    # beside its band row, a second forcing row of its own (0.62 MiB), a
    # fifth step buffer (1 complex table), a separate xi_sigma or a
    # stored phase table (1 float table each), or the data's temporaries
    # alive beside the step buffers exceed it.
    n = 64
    cfg = SolverConfig(params=ModelParams(n=3, sigma=1.0, alpha=1.0, p=3.0,
                                          m=1.0),
                       grid=GridSpec(3, n, 30.0), dt=0.05, t_end=0.5,
                       data_amplitude=0.1, data_profile="noise_bandlimited",
                       snapshot_interval=0.1)
    integrate(cfg)  # first-call imports are not the run's memory
    tracemalloc.start()
    try:
        integrate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = 8 * n * n * (n // 2 + 1)
    band = 8 * (2 * (n // 3) + 1) ** 2 * (n // 3 + 1)
    live = 4 * table + 2 * band + (4 + 2) * 2 * table + 2 * band \
        + 8 * n ** 3
    assert peak <= live + table // 2


def test_config_validation():
    with pytest.raises(ValueError, match="dt"):
        small_config(dt=0.6)
    with pytest.raises(ValueError, match="t_end"):
        small_config(t_end=0.01)
    with pytest.raises(ValueError, match="match"):
        SolverConfig(params=PARAMS, grid=GridSpec(2, 64, 10.0), dt=0.1,
                     t_end=1.0, data_amplitude=1.0)


@pytest.mark.parametrize("key, value", [
    ("data_amplitude", np.inf), ("data_amplitude", np.nan),
    ("data_amplitude", -1.0), ("seed", 1.5), ("seed", -1), ("seed", "0")])
def test_bad_amplitude_or_seed_is_refused_as_input(key, value):
    # refused at construction, naming the key: not in make_profile as a
    # plain ValueError (inf), nor as numpy's TypeError or not at all,
    # depending on the profile (a float seed)
    with pytest.raises(ValidationError, match=key):
        small_config(data_profile="noise_bandlimited", **{key: value})
    assert small_config(seed=np.int64(3)).seed == 3  # numpy integers pass


# --- weighted supremum norm ----------------------------------------------

def test_xt_norm_zero_trajectory():
    traj = integrate(small_config(data_amplitude=0.0))
    assert xt_norm(traj) == 0.0


def test_xt_norm_single_snapshot_weights_are_one():
    grid = build_grid(GridSpec(1, 64, 10.0))
    traj = Trajectory(times=np.array([0.0]), l2=np.array([2.0]),
                      dt_l2=np.array([3.0]), hsigma=np.array([4.0]),
                      lm=np.array([1.0]), params=PARAMS, grid=grid)
    assert xt_norm(traj) == pytest.approx(9.0)


def test_xt_norm_regression_bound_for_linear_flow():
    # Weighted supremum of the linear flow stays below a fixed multiple of
    # the data norms; constant frozen from the first verified run (0.673).
    gs = GridSpec(1, 8192, 1000.0)
    cfg = SolverConfig(params=PARAMS, grid=gs, dt=0.1, t_end=100.0,
                       data_amplitude=1.0, nonlinearity_enabled=False,
                       snapshot_interval=0.1)
    traj = integrate(cfg)
    grid = traj.grid
    u1 = make_data(cfg, grid)
    bound = 0.7 * (lebesgue_norm(u1, 1.0) + lebesgue_norm(u1, 2.0))
    assert xt_norm(traj) <= bound


def test_trajectory_refuses_series_of_another_length():
    # Cutting the states of an all-zero trajectory to 5 of its 21
    # snapshots once let xt_distance read uninitialised rows and report a
    # nonzero distance between two zero trajectories.
    cfg = SolverConfig(params=PARAMS, grid=GridSpec(1, 64, 50.0), dt=0.05,
                       t_end=1.0, data_amplitude=0.0)
    a = zero_trajectory(cfg)
    assert len(a.times) == 21 and xt_distance(a, a) == 0.0
    with pytest.raises(ValueError, match="states holds 5 entries for 21"):
        replace(a, states=a.states[:5])
    for name in ("l2", "dt_l2", "hsigma", "lm"):
        with pytest.raises(ValueError, match=f"^{name} holds 20 entries"):
            replace(a, **{name: getattr(a, name)[:-1]})
    with pytest.raises(ValueError, match="times"):
        replace(a, times=a.times[:-1])


def test_xt_distance_refuses_times_of_another_step():
    # dt = 0.0500004 puts the snapshots up to 8e-6 off those of dt = 0.05,
    # inside np.allclose's default rtol of 1e-5; the distance was 1.44e-6
    def stored(dt):
        return integrate(small_config(dt=dt, t_end=20 * dt,
                                      snapshot_interval=dt, store_states=True))

    base = stored(0.05)
    assert xt_distance(base, stored(0.05)) == 0.0
    with pytest.raises(ValueError, match="snapshot times"):
        xt_distance(base, stored(0.0500004))


def test_xt_distance_refuses_trajectories_of_different_runs():
    # the weights come from a's grid and params; b's would give another value
    def stored(**kw):
        return integrate(small_config(t_end=1.0, snapshot_interval=0.1,
                                      store_states=True, **kw))

    base = stored()
    assert xt_distance(base, stored()) == 0.0
    others = (stored(grid=GridSpec(1, 256, 80.0)),
              stored(params=ModelParams(n=1, sigma=2.0, alpha=0.5, p=4.0,
                                        m=1.0)))
    for other in others:
        for a, b in ((base, other), (other, base)):
            with pytest.raises(ValueError, match="grid and parameters"):
                xt_distance(a, b)


# --- the all-zero trajectory -----------------------------------------------

ZERO_CASES = {
    "1d": small_config(dt=0.05, t_end=2.0),
    "2d": SolverConfig(params=ModelParams(n=2, sigma=1.0, alpha=0.5, p=3.0,
                                          m=1.0),
                       grid=GridSpec(2, 32, 40.0), dt=0.05, t_end=1.0,
                       data_amplitude=0.5),
}


def _stepped_zero_run(cfg):
    """Reference: the integrator run from zero data, every step stored."""
    return integrate(replace(cfg, data_amplitude=0.0, store_states=True,
                             snapshot_interval=cfg.dt,
                             nonlinearity_enabled=False))


@pytest.mark.parametrize("case", ZERO_CASES)
def test_zero_trajectory_is_the_stepped_zero_run_bitwise(case):
    cfg = ZERO_CASES[case]
    got, want = zero_trajectory(cfg), _stepped_zero_run(cfg)
    for name in ("times", "l2", "dt_l2", "hsigma", "lm"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert len(got.states) == len(want.states) == round(cfg.t_end / cfg.dt) + 1
    for g, w in zip([*got.states, got.final_state],
                    [*want.states, want.final_state]):
        for x, y in zip(g, w):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()
    assert got.label == want.label == "decayed"
    assert not got.blew_up


def test_zero_trajectory_broadcasts_one_read_only_zero():
    traj = zero_trajectory(ZERO_CASES["1d"])
    states = traj.states
    assert states.shape == (len(traj.times), 2) + traj.grid.xi_mag.shape
    assert states.strides[:2] == (0, 0) and states.base.size == 1
    for a in (states, *traj.final_state):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[..., 0] = 1.0


def test_zero_trajectory_makes_no_transform(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in dir(np.fft):
        if re.fullmatch(r"i?r?fft[2n]?", name):
            monkeypatch.setattr(np.fft, name,
                                counted(name, getattr(np.fft, name)))
    cfg = ZERO_CASES["1d"]
    zero_trajectory(cfg)
    assert calls == []
    _stepped_zero_run(cfg)  # the counter sees the stepped run's transforms
    assert len(calls) == len(zero_trajectory(cfg).times) + 1


def test_zero_trajectory_refuses_what_integrate_refuses():
    # past the box-validity horizon (25.3 here), and 1.03 / 0.1 steps
    for cfg in (small_config(t_end=30.0), small_config(t_end=1.03)):
        with pytest.raises(ValidationError) as stepped:
            _stepped_zero_run(cfg)
        with pytest.raises(ValidationError) as closed:
            zero_trajectory(cfg)
        assert str(closed.value) == str(stepped.value)
