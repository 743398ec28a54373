import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sigmaevo.grid import (GridSpec, RealField, build_grid, field_from_function,
                           full_from_half, half_from_full, transform_forward,
                           transform_inverse, _forward_half, _half_l2,
                           _inverse_half)


def test_wavenumbers_unit_box():
    grid = build_grid(GridSpec(1, 8, 2 * np.pi))
    assert np.array_equal(grid.wavenumbers[0],
                          [0.0, 1.0, 2.0, 3.0, -4.0, -3.0, -2.0, -1.0])


def test_wavenumbers_scaled_box():
    grid = build_grid(GridSpec(1, 8, 4 * np.pi))
    assert np.allclose(grid.wavenumbers[0],
                       [0.0, 0.5, 1.0, 1.5, -2.0, -1.5, -1.0, -0.5])


def test_wavevector_table_2d():
    # The wavevector table has one entry per lattice point, with max
    # component N/2 * (2 pi / L).
    grid = build_grid(GridSpec(2, 8, 2 * np.pi))
    assert grid.wavevector_count() == 64
    assert max(np.max(np.abs(xi)) for xi in grid.wavenumbers) == 4.0


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
    j = grid.indices[0]
    for target in (1, -1):
        coeff = F.coeffs[j == target][0]
        assert abs(coeff - np.pi) < 1e-12
    assert np.max(np.abs(F.coeffs[np.abs(j) != 1])) < 1e-12


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
    coeffs = transform_forward(f).coeffs
    spectral = np.sum(np.abs(coeffs) ** 2) / grid.box_length ** dim
    assert abs(physical - spectral) <= 1e-10 * physical


def test_conjugate_symmetry_of_real_fields():
    rng = np.random.default_rng(3)
    grid = build_grid(GridSpec(1, 64, 2.0))
    F = transform_forward(RealField(grid, rng.standard_normal(grid.shape)))
    assert F.is_conjugate_symmetric()


def test_shape_mismatch_rejected():
    grid = build_grid(GridSpec(1, 16, 1.0))
    with pytest.raises(ValueError):
        RealField(grid, np.zeros(8))
    with pytest.raises(ValueError):
        RealField(grid, np.full(16, np.nan))


# --- internal half-spectrum layout -----------------------------------------

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
def test_half_full_conversion_round_trips_exactly(case):
    grid, values = case
    half = _forward_half(grid, values)
    full = full_from_half(grid, half)
    assert np.array_equal(half_from_full(grid, full), half)
    assert np.array_equal(full_from_half(grid, half_from_full(grid, full)), full)
    # the filled spectrum is the public (phased) transform
    ref = transform_forward(RealField(grid, values)).coeffs
    scale = max(np.max(np.abs(ref)), 1e-300)
    assert np.max(np.abs(full - ref)) <= 1e-12 * scale


@settings(deadline=None, max_examples=60)
@given(real_fields(), st.sampled_from([0.0, 1.0, 2.5]))
def test_half_spectrum_parseval_matches_full_layout(case, s):
    grid, values = case
    half = _forward_half(grid, values) * grid.half_xi_mag ** s
    full = transform_forward(RealField(grid, values)).coeffs * grid.xi_mag ** s
    want = np.sqrt(np.sum(np.abs(full) ** 2) / grid.box_length ** grid.dim)
    assert abs(_half_l2(grid, half) - want) <= 1e-12 * want


@settings(deadline=None, max_examples=60)
@given(real_fields())
def test_real_transform_pair_returns_samples(case):
    grid, values = case
    back = _inverse_half(grid, _forward_half(grid, values))
    assert np.max(np.abs(back - values)) <= 1e-12 * np.max(np.abs(values))
