import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sigmaevo.grid import (GridSpec, RealField, SpectralField, build_grid,
                           field_from_function, full_from_half,
                           transform_forward, transform_inverse, _forward_half,
                           _half_l2, _inverse_half)

from full_layout import full_forward, full_phase, full_xi_mag


def test_wavenumbers_unit_box():
    grid = build_grid(GridSpec(1, 8, 2 * np.pi))
    assert np.array_equal(grid.wavenumbers[0],
                          [0.0, 1.0, 2.0, 3.0, -4.0, -3.0, -2.0, -1.0])


def test_wavenumbers_scaled_box():
    grid = build_grid(GridSpec(1, 8, 4 * np.pi))
    assert np.allclose(grid.wavenumbers[0],
                       [0.0, 0.5, 1.0, 1.5, -2.0, -1.5, -1.0, -0.5])


def test_wavevector_table_2d():
    # The wavevector tables hold the half spectrum, N x (N/2+1) entries,
    # with max component N/2 * (2 pi / L).
    grid = build_grid(GridSpec(2, 8, 2 * np.pi))
    assert grid.xi_mag.shape == grid.phase.shape == (8, 5)
    assert max(np.max(np.abs(xi)) for xi in grid.wavenumbers) == 4.0
    assert grid.xi_mag[4, 4] == np.sqrt(32.0)


@pytest.mark.parametrize("n", [4, 12, 100])
def test_rejects_bad_point_count(n):
    with pytest.raises(ValueError):
        GridSpec(1, n, 1.0)


def test_rejects_bad_dim_and_length():
    with pytest.raises(ValueError):
        GridSpec(4, 8, 1.0)
    with pytest.raises(ValueError):
        GridSpec(1, 8, -2.0)


def test_cosine_spectrum_matches_continuum_integral():
    # int cos(x) exp(-i x) dx over [-pi, pi] equals pi.
    grid = build_grid(GridSpec(1, 64, 2 * np.pi))
    F = transform_forward(field_from_function(grid, np.cos))
    full = full_from_half(grid, F.coeffs)
    j = grid.indices[0]
    for target in (1, -1):
        coeff = full[j == target][0]
        assert abs(coeff - np.pi) < 1e-12
    assert np.max(np.abs(full[np.abs(j) != 1])) < 1e-12


def test_zero_field_transforms_to_zero():
    grid = build_grid(GridSpec(1, 16, 3.0))
    F = transform_forward(RealField(grid, np.zeros(grid.shape)))
    assert np.all(F.coeffs == 0)


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 32), (3, 16)])
def test_roundtrip_on_white_noise(dim, n):
    rng = np.random.default_rng(7)
    grid = build_grid(GridSpec(dim, n, 5.0))
    f = RealField(grid, rng.standard_normal(grid.shape))
    back = transform_inverse(transform_forward(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))


@pytest.mark.parametrize("dim,n", [(1, 128), (2, 16)])
def test_parseval(dim, n):
    rng = np.random.default_rng(11)
    grid = build_grid(GridSpec(dim, n, 7.5))
    f = RealField(grid, rng.standard_normal(grid.shape))
    physical = np.sum(f.values ** 2) * grid.cell_volume
    coeffs = full_from_half(grid, transform_forward(f).coeffs)
    spectral = np.sum(np.abs(coeffs) ** 2) / grid.box_length ** dim
    assert abs(physical - spectral) <= 1e-10 * physical


def test_conjugate_symmetry_of_real_fields():
    # F(-j) = conj(F(j)) on the full layout, including the j = 0 and
    # j = N/2 entries that the half spectrum holds without a mirror.
    rng = np.random.default_rng(3)
    grid = build_grid(GridSpec(1, 64, 2.0))
    F = transform_forward(RealField(grid, rng.standard_normal(grid.shape)))
    full = full_from_half(grid, F.coeffs)
    mirrored = np.conj(np.roll(full[::-1], 1))
    assert np.max(np.abs(full - mirrored)) <= 1e-12 * np.max(np.abs(full))


def test_shape_mismatch_rejected():
    grid = build_grid(GridSpec(1, 16, 1.0))
    with pytest.raises(ValueError):
        RealField(grid, np.zeros(8))
    with pytest.raises(ValueError):
        RealField(grid, np.full(16, np.nan))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_spectral_field_holds_the_half_spectrum(dim):
    grid = build_grid(GridSpec(dim, 8, 1.0))
    assert SpectralField(grid, np.zeros(grid.xi_mag.shape)).coeffs.shape \
        == grid.shape[:-1] + (5,)
    with pytest.raises(ValueError, match="half spectrum"):
        SpectralField(grid, np.zeros(grid.shape))


# --- half-spectrum layout against the full complex reference --------------

SIZES = {1: (8, 16, 64, 256), 2: (8, 16, 32), 3: (8, 16)}


@st.composite
def real_fields(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.sampled_from(SIZES[dim]))
    grid = build_grid(GridSpec(dim, n, draw(st.floats(0.5, 100.0))))
    values = draw(hnp.arrays(np.float64, grid.shape,
                             elements=st.floats(-1e3, 1e3,
                                                allow_subnormal=False)))
    return grid, values


@settings(deadline=None, max_examples=60)
@given(real_fields())
def test_full_from_half_matches_full_layout_reference(case):
    grid, values = case
    half = transform_forward(RealField(grid, values)).coeffs
    full = full_from_half(grid, half)
    ref = full_forward(grid, values)
    scale = max(np.max(np.abs(ref)), 1e-300)
    assert np.max(np.abs(full - ref)) <= 1e-12 * scale
    # the half-spectrum tables are the leading columns of the full ones
    m = grid.spec.points_per_axis // 2 + 1
    assert np.array_equal(grid.xi_mag, full_xi_mag(grid)[..., :m])
    assert np.array_equal(grid.phase, full_phase(grid)[..., :m])


@settings(deadline=None, max_examples=60)
@given(real_fields(), st.sampled_from([0.0, 1.0, 2.5]))
def test_half_spectrum_parseval_matches_full_layout(case, s):
    grid, values = case
    half = _forward_half(grid, values) * grid.xi_mag ** s
    full = full_forward(grid, values) * full_xi_mag(grid) ** s
    # scaled by the peak so that the reference itself cannot underflow
    peak = np.max(np.abs(full)) or 1.0
    want = peak * np.sqrt(np.sum(np.abs(full / peak) ** 2)
                          / grid.box_length ** grid.dim)
    assert abs(_half_l2(grid, half) - want) <= 1e-12 * want


@pytest.mark.parametrize("amplitude", [1e-160, 1e-300])
def test_half_l2_of_tiny_fields_is_linear(amplitude):
    # Squares of such coefficients underflow; the norm must not.
    grid = build_grid(GridSpec(3, 8, 5.0))
    values = np.random.default_rng(3).standard_normal(grid.spec.shape)
    unit = _half_l2(grid, _forward_half(grid, values))
    tiny = _half_l2(grid, _forward_half(grid, amplitude * values))
    assert abs(tiny - amplitude * unit) <= 1e-13 * amplitude * unit


@settings(deadline=None, max_examples=60)
@given(real_fields())
def test_real_transform_pair_returns_samples(case):
    grid, values = case
    back = _inverse_half(grid, _forward_half(grid, values))
    assert np.max(np.abs(back - values)) <= 1e-12 * np.max(np.abs(values))
