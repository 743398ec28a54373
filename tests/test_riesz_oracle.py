import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gamma

from sigmaevo.checks import riesz_cross_check
from sigmaevo.grid import GridSpec, RealField, build_grid
from sigmaevo.operators import riesz_constant, riesz_oracle


def test_oracle_zero_field():
    grid = build_grid(GridSpec(1, 64, 10.0))
    out = riesz_oracle(RealField(grid, np.zeros(grid.shape)), 0.5)
    assert np.all(out.values == 0)


def test_normalization_constant():
    # Gamma((n - alpha)/2) cancels Gamma(alpha/2) at n=1, alpha=1/2,
    # leaving 1 / sqrt(2 pi).
    assert abs(riesz_constant(1, 0.5) - 1.0 / np.sqrt(2.0 * np.pi)) < 1e-14


@settings(deadline=None)
@given(st.integers(1, 3), st.floats(1e-3, 1.0 - 1e-3))
def test_normalization_constant_matches_scipy_gamma(n, share):
    alpha = share * n
    want = (gamma((n - alpha) / 2.0)
            / (np.pi ** (n / 2.0) * 2.0 ** alpha * gamma(alpha / 2.0)))
    assert abs(riesz_constant(n, alpha) - want) <= 1e-14 * want


def test_oracle_linearity():
    rng = np.random.default_rng(17)
    grid = build_grid(GridSpec(1, 64, 10.0))
    f = RealField(grid, rng.standard_normal(grid.shape))
    g = RealField(grid, rng.standard_normal(grid.shape))
    combo = RealField(grid, 2.0 * f.values - 3.0 * g.values)
    lhs = riesz_oracle(combo, 0.5).values
    rhs = 2.0 * riesz_oracle(f, 0.5).values - 3.0 * riesz_oracle(g, 0.5).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_oracle_grid_guard():
    grid = build_grid(GridSpec(1, 131072, 10.0))
    with pytest.raises(ValueError, match="capped"):
        riesz_oracle(RealField(grid, np.zeros(grid.shape)), 0.5)


def test_oracle_alpha_range():
    grid = build_grid(GridSpec(1, 64, 10.0))
    f = RealField(grid, np.ones(grid.shape))
    with pytest.raises(ValueError):
        riesz_oracle(f, 1.5)


def test_oracle_two_dimensional_symmetry():
    # The n >= 2 path (ball-approximated self-cell) preserves positivity
    # and the four-fold symmetry of radial data.
    grid = build_grid(GridSpec(2, 16, 12.0))
    mesh = grid.meshgrid()
    r2 = mesh[0] ** 2 + mesh[1] ** 2
    f = RealField(grid, np.exp(-r2 / 2.0))
    out = riesz_oracle(f, 1.0).values
    assert np.all(out > 0)
    assert np.allclose(out, out.T, rtol=1e-12)
    assert np.allclose(out, np.flip(np.roll(out, -1, 0), 0), rtol=1e-10)


def test_multiplier_matches_quadrature_on_gaussian():
    # Cross-validation of the two independent routes (single order here;
    # the acceptance suite sweeps three orders).
    assert riesz_cross_check(0.5) <= 0.02
