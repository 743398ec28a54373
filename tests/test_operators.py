import numpy as np
import pytest

from sigmaevo.grid import (GridSpec, RealField, SpectralField, build_grid,
                           transform_forward, transform_inverse)
from sigmaevo.operators import (lebesgue_norm, riesz_multiplier,
                                riesz_potential, sobolev_seminorm)

from full_layout import field_from_function


def unit_circle_grid(n=64):
    return build_grid(GridSpec(1, n, 2 * np.pi))


def rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def fractional_laplacian(f, sigma):
    """``f`` under the multiplier ``Grid.xi_mag ** (2 sigma)``."""
    coeffs = transform_forward(f).coeffs * f.grid.xi_mag ** (2.0 * sigma)
    return transform_inverse(SpectralField(f.grid, coeffs))


def test_riesz_multiplier_is_zero_at_zero_mode():
    for dim, alpha in ((1, 0.5), (2, 1.5), (3, 2.5)):
        grid = build_grid(GridSpec(dim, 8, 2 * np.pi))
        vals = riesz_multiplier(grid.xi_mag, alpha)
        assert vals[(0,) * dim] == 0.0
        rest = grid.xi_mag > 0
        assert np.all(np.isfinite(vals))
        assert np.array_equal(vals[rest], grid.xi_mag[rest] ** -alpha)


def test_fractional_laplacian_eigenfunctions():
    grid = build_grid(GridSpec(1, 128, 2 * np.pi))
    f = field_from_function(grid, lambda x: np.sin(3 * x))
    out = fractional_laplacian(f, 1.0)
    assert rel_err(out.values, 9.0 * f.values) < 1e-10

    # |xi|^4 amplifies roundoff modes by xi_max^4; a small grid keeps the
    # eigenfunction check at the stated tolerance.
    grid2 = build_grid(GridSpec(1, 32, 2 * np.pi))
    g = field_from_function(grid2, np.cos)
    out2 = fractional_laplacian(g, 2.0)
    assert rel_err(out2.values, g.values) < 1e-10


def test_fractional_laplacian_vs_finite_differences():
    # Independent second-derivative oracle for sigma = 1 on a Gaussian.
    grid = build_grid(GridSpec(1, 4096, 40.0))
    f = field_from_function(grid, lambda x: np.exp(-x * x / 2.0))
    h = grid.box_length / grid.spec.points_per_axis
    v = f.values
    second = (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / h ** 2
    spectral = fractional_laplacian(f, 1.0).values
    assert rel_err(spectral, -second) < 1e-4


def test_riesz_potential_eigenfunction():
    grid = unit_circle_grid(128)
    f = field_from_function(grid, lambda x: np.cos(2 * x))
    out = riesz_potential(f, 0.5)
    assert rel_err(out.values, 2.0 ** -0.5 * f.values) < 1e-10


def test_riesz_potential_kills_constants():
    grid = unit_circle_grid()
    out = riesz_potential(RealField(grid, np.full(grid.shape, 3.7)), 0.5)
    assert np.max(np.abs(out.values)) < 1e-12


def test_riesz_potential_alpha_range():
    grid = unit_circle_grid()
    f = field_from_function(grid, np.sin)
    for alpha in (0.0, 1.0, 2.0, -0.5):
        with pytest.raises(ValueError):
            riesz_potential(f, alpha)


def test_smooth_then_roughen_recovers_mean_free_part():
    rng = np.random.default_rng(13)
    grid = unit_circle_grid(128)
    f = RealField(grid, rng.standard_normal(grid.shape) + 2.0)
    alpha = 0.6
    smooth = riesz_multiplier(grid.xi_mag, alpha)
    rough = grid.xi_mag ** alpha
    F = transform_forward(f)
    back = F.coeffs * smooth * rough
    expected = F.coeffs.copy()
    expected[0] = 0.0  # mean projected out
    assert np.max(np.abs(back - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_lebesgue_norm_constant():
    grid = build_grid(GridSpec(1, 16, 4.0))
    f = RealField(grid, np.full(grid.shape, 2.0))
    assert abs(lebesgue_norm(f, 2.0) - 4.0) < 1e-12


def test_lebesgue_norm_sine():
    grid = build_grid(GridSpec(1, 256, 2 * np.pi))
    f = field_from_function(grid, np.sin)
    assert abs(lebesgue_norm(f, 2.0) - np.sqrt(np.pi)) < 1e-12


def test_lebesgue_norm_range():
    grid = unit_circle_grid()
    with pytest.raises(ValueError):
        lebesgue_norm(field_from_function(grid, np.sin), 0.5)


def test_sobolev_seminorm_eigenfunction():
    grid = build_grid(GridSpec(1, 256, 2 * np.pi))
    sin = field_from_function(grid, np.sin)
    cos = field_from_function(grid, np.cos)
    assert abs(sobolev_seminorm(sin, 1.0) - lebesgue_norm(cos, 2.0)) < 1e-12


def test_sobolev_seminorm_s0_is_l2():
    rng = np.random.default_rng(21)
    grid = unit_circle_grid(128)
    f = RealField(grid, rng.standard_normal(grid.shape))
    assert abs(sobolev_seminorm(f, 0.0) - lebesgue_norm(f, 2.0)) \
        <= 1e-10 * lebesgue_norm(f, 2.0)

