import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammainc

from sigmaevo.checks import ode_oracle
from sigmaevo.grid import GridSpec, build_grid, transform_forward
from sigmaevo.params import ModelParams
from sigmaevo.propagator import (DOUBLE_ROOT_BAND, _band_moments,
                                 _kernels_near, _phi1,
                                 decay_exponent, duhamel_weight,
                                 kernel_arrays, propagate_linear,
                                 velocity_kernels)

from full_layout import field_from_function

K_SAMPLES = [0.0, 1e-3, 0.2, 0.99, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.01, 2.0,
             10.0, 1e4, 1e6]
T_SAMPLES = [0.0, 0.1, 1.0, 10.0, 50.0]


def test_initial_time_identities_exact():
    for k in K_SAMPLES:
        A, K1, dA, dK1 = kernel_arrays(np.array([k]), 0.0)
        assert (A[0], K1[0], dA[0], dK1[0]) == (1.0, 0.0, 0.0, 1.0)


def test_mean_mode_reduction():
    for t in (0.5, 1.0, 7.0):
        A, K1, _, _ = kernel_arrays(np.array([0.0]), t)
        assert abs(K1[0] - (1.0 - np.exp(-t))) < 1e-15
        assert A[0] == 1.0


def test_double_root_values():
    A, K1, _, _ = kernel_arrays(np.array([1.0]), 2.0)
    assert abs(K1[0] - 2.0 * np.exp(-2.0)) < 1e-15
    assert abs(A[0] - 3.0 * np.exp(-2.0)) < 1e-15


def test_generic_mode_value():
    _, K1, _, _ = kernel_arrays(np.array([2.0]), 1.0)
    assert abs(K1[0] - (np.exp(-1.0) - np.exp(-2.0))) < 1e-15


def test_derivative_identity():
    for k in K_SAMPLES:
        for t in T_SAMPLES:
            _, K1, dA, _ = kernel_arrays(np.array([k]), t)
            assert abs(dA[0] + k * K1[0]) <= 1e-12


# k across the spectrum, with a share of draws forced into the band
# |1 - k| <= DOUBLE_ROOT_BAND where the series-stabilized branch is used.
K_DRAWS = st.one_of(st.floats(0.0, 1e4),
                    st.floats(1.0 - DOUBLE_ROOT_BAND, 1.0 + DOUBLE_ROOT_BAND))
T_DRAWS = st.floats(0.0, 10.0)


def _kernel_matrix(k, t):
    A, K1, dA, dK1 = kernel_arrays(np.array([k]), t)
    return np.array([[A[0], K1[0]], [dA[0], dK1[0]]])


@settings(deadline=None)  # run time is not the property under test
@given(K_DRAWS, T_DRAWS, T_DRAWS)
def test_kernel_matrix_semigroup(k, s, t):
    # The Picard recurrence advances Duhamel sums by M(dt); it is exact
    # only if M(s) M(t) = M(s + t).  Entries are O(1); the far branch's
    # cancellation at the band edge costs about 2e-12 of that.
    product = _kernel_matrix(k, s) @ _kernel_matrix(k, t)
    assert np.max(np.abs(product - _kernel_matrix(k, s + t))) <= 1e-11


@settings(deadline=None)
@given(K_DRAWS, T_DRAWS)
def test_derivative_identity_and_wronskian(k, t):
    # dA = -k K1, and with it det M(t) = exp(-(1 + k) t) (Abel's identity
    # for v'' + (1 + k) v' + k v = 0), which a wrong dA would break.
    (A, K1), (dA, dK1) = _kernel_matrix(k, t)
    assert abs(dA + k * K1) <= 1e-15 * max(1.0, k * abs(K1))
    scale = max(abs(A * dK1), abs(K1 * dA), np.exp(-(1.0 + k) * t))
    assert abs(A * dK1 - K1 * dA - np.exp(-(1.0 + k) * t)) <= 1e-10 * scale


def test_branch_continuity_at_band_edge():
    # The near branch against the textbook far closed forms of (A, K1, dK1).
    # Per-value relative error, floored at 1% of the local kernel scale:
    # dK1 crosses zero near (k, t) = (1, 1), and right at the band edge the
    # far closed form's own cancellation caps its accuracy at about 1e-12
    # of the kernel scale, which the floored gauge represents honestly.
    for k in (1.0 - DOUBLE_ROOT_BAND, 1.0 + DOUBLE_ROOT_BAND):
        for t in (0.1, 1.0, 10.0):
            e_kt, e_t = math.exp(-k * t), math.exp(-t)
            far = [(e_kt - k * e_t) / (1.0 - k), (e_kt - e_t) / (1.0 - k),
                   (e_t - k * e_kt) / (1.0 - k)]
            K1, dK1 = (arr[0] for arr in _kernels_near(np.array([k]), t))
            near = [K1 + e_t, K1, dK1]
            scale = max(abs(v) for v in near)
            for a, b in zip(far, near):
                assert abs(a - b) <= 1e-10 * max(abs(b), 1e-2 * scale)


@settings(deadline=None)
@given(K_DRAWS, T_DRAWS)
def test_velocity_kernels_sum_to_slow_exponential(k, t):
    # dK1 + K1 = exp(-k t): the two come from separate formulas (and
    # separate branches in the band), so this checks one against the
    # other.  In the sum the far form keeps the rounding of k exp(-k t)
    # divided by 1 - k: up to 2^-53 / 1e-4 = 1.1e-12 of the larger term
    # just outside the band (1.1e-12 is also the largest seen in a dense
    # scan of the band edges).
    _, K1, _, dK1 = (v[0] for v in kernel_arrays(np.array([k]), t))
    slow = math.exp(-k * t)
    assert abs(dK1 + K1 - slow) <= 5e-12 * max(abs(K1), slow)


def _exact_phi1(z: float) -> float:
    # sum_j z^j / (j + 1)! in exact rationals; 12 terms leave < 1e-40
    # relative at |z| <= 1e-3.
    x = Fraction(z)
    return float(sum(x ** j / math.factorial(j + 1) for j in range(12)))


@settings(deadline=None)
@given(st.floats(-1e-3, 1e-3))
def test_phi1_matches_exact_series(z):
    # expm1(z)/z rounds twice, so it is within about two ulps of 1.
    assert abs(_phi1(z) - _exact_phi1(z)) <= 4.5e-16


# Both sides of each band edge, the removable singularities k = 0 and
# k = 1, and stiff modes whose exponentials underflow.
PATCH_TABLE = np.array([0.0, 1e-3, 1.0 - 1.1e-4, 1.0 - 1e-4, 1.0 - 1e-6, 1.0,
                        1.0 + 1e-6, 1.0 + 1e-4, 1.0 + 1.1e-4, 10.0, 1e4, 1e8])


def _entrywise(fn, arg):
    # the table in one call, and each entry alone as a scalar
    whole = np.array(fn(PATCH_TABLE, arg)).reshape(-1, PATCH_TABLE.size)
    alone = np.array([np.array(fn(float(k), arg)).reshape(-1)
                      for k in PATCH_TABLE]).T
    return whole, alone


def test_kernel_tables_patch_singularities_entrywise():
    # Tables are evaluated in closed form in one pass and patched where
    # the closed form is 0/0; no such value may escape the patch, and a
    # patched entry may not depend on its neighbours.
    cases = [(kernel_arrays, t) for t in (0.0, 0.1, 10.0)]
    cases += [(duhamel_weight, dt) for dt in (0.02, 0.5)]
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        for fn, arg in cases:
            whole, alone = _entrywise(fn, arg)
            assert np.all(np.isfinite(whole))
            assert np.all(np.abs(whole - alone) <= 1e-14 * np.abs(alone))
    assert _phi1(0.0) == 1.0


@settings(deadline=None)
@given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8))
def test_velocity_kernels_are_the_kernel_tables(times):
    # tables served one after another from reused buffers are bitwise
    # the tables of a fresh evaluation at each time
    ks = np.concatenate([PATCH_TABLE, np.logspace(-6, 6, 50)])
    for t, (K1, dK1) in zip(times, velocity_kernels(ks, times)):
        _, K1_ref, _, dK1_ref = kernel_arrays(ks, t)
        assert np.array_equal(K1, K1_ref) and np.array_equal(dK1, dK1_ref)


def _exact_moment(j: int, dt: float) -> float:
    # int_0^dt tau^j exp(-tau) dtau = sum_i (-1)^i dt^(i+j+1) / (i! (i+j+1))
    # in exact rationals; 25 terms leave < 1e-24 relative at dt <= 0.5.
    x = Fraction(dt)
    return float(sum(Fraction((-1) ** i, math.factorial(i) * (i + j + 1))
                     * x ** (i + j + 1) for i in range(25)))


@settings(deadline=None)
@given(st.floats(1e-3, 0.5))
def test_band_moments_match_incomplete_gamma(dt):
    # M_j = j! P(j + 1, dt).  Below dt = 1e-3 gammainc itself drifts
    # (1e-14 relative near 1e-8, and it is wrong outright below about
    # 1e-12), so the exact rational series covers the rest of (0, 0.5].
    for j, got in zip((1, 2, 3), _band_moments(dt)):
        want = gammainc(j + 1, dt) * math.factorial(j)
        assert abs(got - want) <= 1e-14 * want


@settings(deadline=None)
@given(st.floats(1e-60, 0.5))
def test_band_moments_match_exact_series(dt):
    for j, got in zip((1, 2, 3), _band_moments(dt)):
        want = _exact_moment(j, dt)
        assert abs(got - want) <= 1e-15 * want


def test_velocity_kernel_bounded():
    ks = np.concatenate([[0.0], np.logspace(-6, 6, 200), [1.0]])
    for t in (0.01, 0.5, 1.0, 5.0, 30.0, 100.0):
        _, K1, _, _ = kernel_arrays(ks, t)
        assert np.max(np.abs(K1)) <= 1.0 + 1e-12


def test_kernel_input_validation():
    with pytest.raises(ValueError):
        kernel_arrays(np.array([-1.0]), 1.0)
    with pytest.raises(ValueError):
        kernel_arrays(np.array([1.0]), -0.5)


def test_oracle_spot_values():
    # kernels in the order (A, K1, dA, dK1)
    assert abs(ode_oracle(0.0, 1.0)[1] - (1.0 - np.exp(-1.0))) < 1e-10
    for k in (2.0, 1.0 - 1e-6, 1.0 + 1e-6):
        closed = kernel_arrays(np.array([k]), 10.0)
        ref = ode_oracle(k, 10.0)
        for i in (0, 1, 3):  # A, K1, dK1
            a, b = closed[i][0], ref[i]
            assert abs(a - b) <= 1e-8 * max(abs(b), 1e-12)


def test_oracle_input_validation():
    with pytest.raises(ValueError):
        ode_oracle(-1.0, 1.0)
    with pytest.raises(ValueError):
        ode_oracle(1.0, 101.0)


def test_duhamel_weight_continuity_and_limits():
    dt = 0.1
    # mean mode: integral of 1 - exp(-s)
    w0 = duhamel_weight(np.array([0.0]), dt)[0]
    assert abs(w0 - (dt - 1.0 + np.exp(-dt))) < 1e-15
    # double root: integral of s exp(-s)
    w1 = duhamel_weight(np.array([1.0]), dt)[0]
    assert abs(w1 - (1.0 - (1.0 + dt) * np.exp(-dt))) < 1e-14
    # continuity across the band edge
    for k in (1.0 - DOUBLE_ROOT_BAND, 1.0 + DOUBLE_ROOT_BAND):
        inside = duhamel_weight(np.array([k * (1 - 1e-12)]), dt)[0]
        outside = duhamel_weight(np.array([k * (1 + 1e-12)]), dt)[0]
        assert abs(inside - outside) <= 1e-9 * abs(outside)


def test_propagate_linear_initial_condition():
    grid = build_grid(GridSpec(1, 64, 2 * np.pi))
    u1 = transform_forward(field_from_function(grid, np.cos))
    u, ut = propagate_linear(u1, 1.0, 0.0)
    assert np.all(u.coeffs == 0)
    assert np.array_equal(ut.coeffs, u1.coeffs)


def test_propagate_linear_double_root_mode():
    # cos(x) on the unit circle sits exactly at k = 1 for sigma = 1.
    grid = build_grid(GridSpec(1, 64, 2 * np.pi))
    f = field_from_function(grid, np.cos)
    u, _ = propagate_linear(transform_forward(f), 1.0, 3.0)
    expected = 3.0 * np.exp(-3.0) * transform_forward(f).coeffs
    assert np.max(np.abs(u.coeffs - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_high_modes_annihilated_at_late_times():
    grid = build_grid(GridSpec(1, 256, 2 * np.pi))
    k = grid.xi_mag ** 2
    _, K1, _, _ = kernel_arrays(k, 50.0)
    high = k >= 4.0
    assert np.max(np.abs(K1[high])) <= np.exp(-49.0) + np.exp(-50.0)
    assert np.max(np.abs(K1[high])) < 1e-20


def test_linear_flow_l2_contraction():
    rng = np.random.default_rng(23)
    grid = build_grid(GridSpec(1, 128, 17.0))
    from sigmaevo.grid import RealField
    from sigmaevo.operators import lebesgue_norm
    from sigmaevo.grid import transform_inverse
    f = RealField(grid, rng.standard_normal(grid.shape))
    norm0 = lebesgue_norm(f, 2.0)
    for t in (0.1, 1.0, 5.0, 20.0):
        u, _ = propagate_linear(transform_forward(f), 1.5, t)
        assert lebesgue_norm(transform_inverse(u), 2.0) <= (1 + 1e-10) * norm0


def test_decay_exponent_values():
    p1 = ModelParams(n=1, sigma=1.0, alpha=0.5, p=4.0, m=1.0)
    assert decay_exponent(p1, 0.0, 0) == -0.25
    assert decay_exponent(p1, 0.0, 1) == -1.25
    p2 = ModelParams(n=3, sigma=2.0, alpha=1.0, p=4.0, m=2.0)
    assert decay_exponent(p2, 2.0, 0) == -0.5


def test_decay_exponent_validation():
    p = ModelParams(n=1, sigma=1.0, alpha=0.5, p=4.0, m=1.0)
    with pytest.raises(ValueError):
        decay_exponent(p, -1.0, 0)
    with pytest.raises(ValueError):
        decay_exponent(p, 0.0, 2)
