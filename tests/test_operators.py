import numpy as np
import pytest

from sigmaevo.grid import (GridSpec, RealField, build_grid, field_from_function,
                           full_from_half, transform_forward)
from sigmaevo.operators import (apply_symbol, fractional_laplacian,
                                lebesgue_norm, riesz_multiplier,
                                riesz_potential, sobolev_norm_inhom,
                                sobolev_seminorm)

from full_layout import full_phase


def unit_circle_grid(n=64):
    return build_grid(GridSpec(1, n, 2 * np.pi))


def rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_identity_symbol():
    grid = unit_circle_grid()
    F = transform_forward(field_from_function(grid, lambda x: np.sin(2 * x)))
    out = apply_symbol(F, np.ones_like(grid.xi_mag))
    assert np.array_equal(out.coeffs, F.coeffs)


@pytest.mark.parametrize("power,factor", [(2.0, 4.0), (3.0, 8.0)])
def test_power_symbols_on_eigenfunctions(power, factor):
    # Small grid keeps the |xi|^power amplification of roundoff modes tame.
    grid = unit_circle_grid(32)
    f = field_from_function(grid, lambda x: np.cos(2 * x))
    out = apply_symbol(transform_forward(f), grid.xi_mag ** power)
    expected = factor * transform_forward(f).coeffs
    assert np.max(np.abs(out.coeffs - expected)) < 1e-11 * factor


def test_symbol_composition():
    rng = np.random.default_rng(5)
    grid = unit_circle_grid(128)
    F = transform_forward(RealField(grid, rng.standard_normal(grid.shape)))
    r = grid.xi_mag
    s1 = 1.0 + r ** 2
    s2 = np.exp(-r / 4.0)
    s12 = (1.0 + r ** 2) * np.exp(-r / 4.0)
    seq = apply_symbol(apply_symbol(F, s1), s2).coeffs
    joint = apply_symbol(F, s12).coeffs
    assert np.max(np.abs(seq - joint)) <= 1e-12 * np.max(np.abs(joint))


def test_real_even_symbol_preserves_conjugate_symmetry():
    rng = np.random.default_rng(9)
    grid = unit_circle_grid(128)
    F = transform_forward(RealField(grid, rng.standard_normal(grid.shape)))
    out = apply_symbol(F, 1.0 / (1.0 + grid.xi_mag))
    # the filled full layout is the spectrum of a real field
    back = np.fft.ifftn(full_from_half(grid, out.coeffs) * full_phase(grid))
    assert np.max(np.abs(back.imag)) <= 1e-10 * np.max(np.abs(out.coeffs))


def test_nonfinite_symbol_rejected():
    grid = unit_circle_grid()
    F = transform_forward(field_from_function(grid, np.sin))
    with np.errstate(divide="ignore"):
        bad = 1.0 / (grid.xi_mag - 1.0)  # infinite at |xi| = 1
    bad[0] = 0.0
    with pytest.raises(ValueError, match="non-finite"):
        apply_symbol(F, bad)
    with pytest.raises(ValueError, match="non-finite"):
        apply_symbol(F, np.full(grid.xi_mag.shape, np.nan))


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


def test_fractional_laplacian_sigma_range():
    grid = unit_circle_grid()
    with pytest.raises(ValueError):
        fractional_laplacian(field_from_function(grid, np.sin), 0.5)


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
    back = apply_symbol(apply_symbol(F, smooth), rough).coeffs
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


def test_inhomogeneous_sobolev_norm():
    grid = build_grid(GridSpec(1, 256, 2 * np.pi))
    sin = field_from_function(grid, np.sin)
    # modes at |xi| = 1: weight (1 + 1)^(1/2) on an L2 norm of sqrt(pi)
    assert abs(sobolev_norm_inhom(sin, 1.0) - np.sqrt(2.0 * np.pi)) < 1e-12
