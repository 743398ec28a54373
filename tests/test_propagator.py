import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmaevo.checks import ode_oracle
from sigmaevo.grid import GridSpec, build_grid, transform_forward
from sigmaevo.params import ModelParams
from sigmaevo.propagator import (GAUSS_LEGENDRE_12, decay_exponent,
                                 duhamel_weight, kernel_arrays,
                                 propagate_linear, velocity_kernels)

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
    # late times, where exp(-t) is far below the rounding of K1 = 1 - exp(-t)
    for t in (30.0, 100.0):
        A, _, _, dK1 = kernel_arrays(np.array([0.0]), t)
        assert abs(dK1[0] - math.exp(-t)) <= 1e-15 * math.exp(-t)
        assert abs(A[0] - 1.0) <= 1e-15


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


# k across the spectrum, with a share of draws at 1 +- 10^-u, around the
# double root where the difference quotients of the kernels cancel.
K_DRAWS = st.one_of(st.floats(0.0, 1e4),
                    st.builds(lambda u, s: 1.0 + s * 10.0 ** -u,
                              st.integers(1, 15), st.sampled_from((-1, 1))))
T_DRAWS = st.floats(0.0, 10.0)


def _kernel_matrix(k, t):
    A, K1, dA, dK1 = kernel_arrays(np.array([k]), t)
    return np.array([[A[0], K1[0]], [dA[0], dK1[0]]])


@settings(deadline=None)  # run time is not the property under test
@given(K_DRAWS, T_DRAWS, T_DRAWS)
def test_kernel_matrix_semigroup(k, s, t):
    # The Picard recurrence advances Duhamel sums by M(dt); it is exact
    # only if M(s) M(t) = M(s + t).  Entries are O(1).
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


@settings(deadline=None)
@given(K_DRAWS, T_DRAWS)
def test_velocity_kernels_sum_to_slow_exponential(k, t):
    # dK1 + K1 = exp(-k t).  Below k = 1 this checks K1 against the
    # exponential dK1 is formed from: dK1 + K1 = exp(-t) + (1 - k) K1.
    _, K1, _, dK1 = (v[0] for v in kernel_arrays(np.array([k]), t))
    slow = math.exp(-k * t)
    assert abs(dK1 + K1 - slow) <= 5e-12 * max(abs(K1), slow)


# The removable singularities k = 0 and k = 1 and modes beside them, both
# sides of duhamel_weight's switch |1 - k| dt = 1 at dt = 0.5 (k = 3), and
# stiff modes whose exponentials underflow.
PATCH_TABLE = np.array([0.0, 1e-3, 1.0 - 1.1e-4, 1.0 - 1e-4, 1.0 - 1e-6, 1.0,
                        1.0 + 1e-6, 1.0 + 1e-4, 1.0 + 1.1e-4, 3.0 - 1e-9,
                        3.0 + 1e-9, 10.0, 1e4, 1e8])


def _entrywise(fn, arg):
    # the table in one call, and each entry alone as a scalar
    whole = np.array(fn(PATCH_TABLE, arg)).reshape(-1, PATCH_TABLE.size)
    alone = np.array([np.array(fn(float(k), arg)).reshape(-1)
                      for k in PATCH_TABLE]).T
    return whole, alone


def test_kernel_tables_patch_singularities_entrywise():
    # Tables are evaluated in one pass over the table (duhamel_weight in
    # one pass per side of its switch); no 0/0 may arise at the removable
    # singularities, and no entry may depend on its neighbours.
    cases = [(kernel_arrays, t) for t in (0.0, 0.1, 10.0)]
    cases += [(duhamel_weight, dt) for dt in (0.02, 0.5)]
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        for fn, arg in cases:
            whole, alone = _entrywise(fn, arg)
            assert np.all(np.isfinite(whole))
            assert np.all(np.abs(whole - alone) <= 1e-14 * np.abs(alone))


@settings(deadline=None)
@given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8))
def test_velocity_kernels_are_the_kernel_tables(times):
    # tables served one after another from reused buffers are bitwise
    # the tables of a fresh evaluation at each time
    ks = np.concatenate([PATCH_TABLE, np.logspace(-6, 6, 50)])
    for t, (K1, dK1) in zip(times, velocity_kernels(ks, times)):
        _, K1_ref, _, dK1_ref = kernel_arrays(ks, t)
        assert np.array_equal(K1, K1_ref) and np.array_equal(dK1, dK1_ref)


# --- 40-digit references (stdlib decimal) ---------------------------------
#
# Both references sum positive-term series wherever a difference quotient
# would cancel, so 40 digits leave every value far below the bounds.

def _dec_phi1(z: Decimal) -> Decimal:
    # (exp(z) - 1)/z, by its series below |z| = 1 where the difference cancels
    if abs(z) >= 1:
        return (z.exp() - 1) / z
    term, total, j = Decimal(1), Decimal(0), 1
    while total == 0 or abs(term) > Decimal("1e-45") * abs(total):
        total += term
        j += 1
        term = term * z / j
    return total


def _dec_kernels(k: float, t: float) -> list[float]:
    # (A, K1, dA, dK1) from K1 = t exp(-t) phi1((1 - k) t); dK1 = e^-t - k K1
    with localcontext() as ctx:
        ctx.prec = 40
        k, t = Decimal(k), Decimal(t)
        e_t = (-t).exp()
        K1 = t * e_t * _dec_phi1((1 - k) * t)
        return [float(v) for v in (K1 + e_t, K1, -k * K1, e_t - k * K1)]


def _dec_moment(m: int, dt: Decimal) -> Decimal:
    # int_0^dt tau^m exp(-tau) dtau = m! exp(-dt) sum_{i > m} dt^i / i!
    term = dt ** (m + 1) / math.factorial(m + 1)
    total, i = Decimal(0), m + 1
    while term > Decimal("1e-45") * total:
        total += term
        i += 1
        term = term * dt / i
    return math.factorial(m) * (-dt).exp() * total


def _dec_weight(k: float, dt: float) -> float:
    # int_0^dt K1: for |1 - k| dt <= 1 the series
    # sum_j (1 - k)^j M_{j+1} / (j + 1)! of the moments M, else the closed
    # form (psi(k) - psi(1)) / (1 - k), psi(a) = dt phi1(-a dt), which then
    # keeps all but a digit (dt <= 1 puts only k > 2 there)
    with localcontext() as ctx:
        ctx.prec = 40
        k, dt = Decimal(k), Decimal(dt)
        w = 1 - k
        if abs(w) * dt > 1:
            return float(dt * (_dec_phi1(-k * dt) - _dec_phi1(-dt)) / w)
        total, power, j = Decimal(0), Decimal(1), 0
        while True:
            term = power * _dec_moment(j + 1, dt) / math.factorial(j + 1)
            total += term
            if abs(term) <= Decimal("1e-45") * abs(total):
                return float(total)
            power *= w
            j += 1


# The double root from both sides at every scale, the mean mode, and
# stiff modes; times down to the smallest subnormal and up to 1000.
DEC_K = sorted({1.0 + s * 10.0 ** -u for u in range(1, 16) for s in (-1, 1)}
               | {0.0, 1e-8, 1e-3, 1.0, 10.0, 1e4, 1e8})
DEC_T = (0.0, 5e-324, 1e-9, 1e-3, 0.02, 0.0353, 0.25, 1.0, 10.0, 100.0,
         1000.0)
DEC_DT = (1e-6, 1e-4, 1e-3, 0.01, 0.02, 0.0353, 0.1, 0.25, 0.5)
DEC_TOL = 1e-13
# The weight sums twelve positive terms, each within a few ulps; the worst
# seen is 4.2e-16.  Six nodes instead of twelve read 4.3e-14 at the switch.
DEC_TOL_WEIGHT = 1e-14
EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny  # below it float64 keeps absolute precision only


def test_kernels_match_decimal_reference():
    # The gauge of checks.kernel_oracle_suite: relative error, floored at
    # 1e-5 of the quartet's scale (and at the smallest normal float, where
    # a whole quartet underflows).  dK1 = exp(-max(k, 1) t) - min(k, 1) K1
    # crosses zero (at t = 1 for k = 1), and there it keeps the rounding
    # of its two terms: two ulps of exp(-max(k, 1) t) are allowed on top.
    errors = []
    for t in DEC_T:
        tables = kernel_arrays(np.array(DEC_K), t)
        for i, k in enumerate(DEC_K):
            ref = _dec_kernels(k, t)
            scale = max(abs(b) for b in ref)
            floor = max(1e-5 * scale, TINY)
            for name, table, b in zip(("A", "K1", "dA", "dK1"), tables, ref):
                slack = (2 * EPS * min(math.exp(-t), math.exp(-k * t))
                         if name == "dK1" else 0.0)
                err = max(abs(table[i] - b) - slack, 0.0) / max(abs(b), floor)
                errors.append((err, k, t, name))
    bad = [e for e in errors if not e[0] <= DEC_TOL]  # NaN fails too
    assert not bad, bad[:5]


def test_duhamel_weight_matches_decimal_reference():
    # DEC_K, and the switch |1 - k| dt = 1, where the quadrature is hardest
    errors = []
    for dt in DEC_DT:
        ks = DEC_K + [1.0 + 1.0 / dt]
        got = duhamel_weight(np.array(ks), dt)
        for i, k in enumerate(ks):
            b = _dec_weight(k, dt)
            errors.append((abs(got[i] - b) / b, k, dt))
    bad = [e for e in errors if not e[0] <= DEC_TOL_WEIGHT]  # NaN fails too
    assert not bad, bad[:5]


def test_gauss_legendre_table_is_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(12)
    table = np.array(GAUSS_LEGENDRE_12)
    assert np.array_equal(table[:, 0], nodes[6:])
    assert np.array_equal(table[:, 1], weights[6:])
    assert np.array_equal(nodes[:6], -nodes[6:][::-1])
    assert np.array_equal(weights[:6], weights[6:][::-1])


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
    for dt in (0.0, 1.5):  # the quadrature side holds for dt <= 1
        with pytest.raises(ValueError):
            duhamel_weight(np.array([1.0]), dt)


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
    # continuity across the switch |1 - k| dt = 1 between the quadrature
    # and the closed form
    k = 1.0 + 1.0 / dt
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
