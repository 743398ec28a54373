import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmaevo.grid import GridSpec, build_grid, field_from_function, transform_forward
from sigmaevo.params import ModelParams
from sigmaevo.propagator import (DOUBLE_ROOT_BAND, _kernels_far, _kernels_near,
                                 _phi1, decay_exponent, duhamel_weight,
                                 kernel_arrays, kernels, ode_oracle,
                                 propagate_linear)

K_SAMPLES = [0.0, 1e-3, 0.2, 0.99, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.01, 2.0,
             10.0, 1e4, 1e6]
T_SAMPLES = [0.0, 0.1, 1.0, 10.0, 50.0]


def test_initial_time_identities_exact():
    for k in K_SAMPLES:
        ker = kernels(k, 0.0)
        assert (ker.A, ker.K1, ker.dA, ker.dK1) == (1.0, 0.0, 0.0, 1.0)


def test_mean_mode_reduction():
    for t in (0.5, 1.0, 7.0):
        ker = kernels(0.0, t)
        assert abs(ker.K1 - (1.0 - np.exp(-t))) < 1e-15
        assert ker.A == 1.0


def test_double_root_values():
    ker = kernels(1.0, 2.0)
    assert abs(ker.K1 - 2.0 * np.exp(-2.0)) < 1e-15
    assert abs(ker.A - 3.0 * np.exp(-2.0)) < 1e-15


def test_generic_mode_value():
    ker = kernels(2.0, 1.0)
    assert abs(ker.K1 - (np.exp(-1.0) - np.exp(-2.0))) < 1e-15


def test_derivative_identity():
    for k in K_SAMPLES:
        for t in T_SAMPLES:
            ker = kernels(k, t)
            assert abs(ker.dA + k * ker.K1) <= 1e-12


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
    # Per-value relative error, floored at 1% of the local kernel scale:
    # dK1 crosses zero near (k, t) = (1, 1), and right at the band edge the
    # far branch's own cancellation caps its accuracy at about 1e-12 of the
    # kernel scale, which the floored gauge represents honestly.
    for k in (1.0 - DOUBLE_ROOT_BAND, 1.0 + DOUBLE_ROOT_BAND):
        for t in (0.1, 1.0, 10.0):
            far = [arr[0] for arr in _kernels_far(np.array([k]), t)]
            near = [arr[0] for arr in _kernels_near(np.array([k]), t)]
            scale = max(abs(v) for v in near)
            for a, b in zip(far, near):
                assert abs(a - b) <= 1e-10 * max(abs(b), 1e-2 * scale)


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


def test_velocity_kernel_bounded():
    ks = np.concatenate([[0.0], np.logspace(-6, 6, 200), [1.0]])
    for t in (0.01, 0.5, 1.0, 5.0, 30.0, 100.0):
        _, K1, _, _ = kernel_arrays(ks, t)
        assert np.max(np.abs(K1)) <= 1.0 + 1e-12


def test_kernel_input_validation():
    with pytest.raises(ValueError):
        kernels(-1.0, 1.0)
    with pytest.raises(ValueError):
        kernels(1.0, -0.5)


def test_oracle_spot_values():
    assert abs(ode_oracle(0.0, 1.0).K1 - (1.0 - np.exp(-1.0))) < 1e-10
    for k in (2.0, 1.0 - 1e-6, 1.0 + 1e-6):
        closed = kernels(k, 10.0)
        ref = ode_oracle(k, 10.0)
        for name in ("A", "K1", "dK1"):
            a, b = getattr(closed, name), getattr(ref, name)
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
