import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sigmaevo.grid import (GridSpec, RealField, SpectralField, build_grid,
                           transform_forward, transform_inverse,
                           _forward_half, _half_energy, _half_l2_rows,
                           _inverse_half, _lm_norm, _multiplier_l2,
                           _parseval_sum)

from full_layout import (field_from_function, full_forward, full_from_half,
                         full_phase, full_xi_mag, l1_reference,
                         parseval_reference)


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


@pytest.mark.parametrize("dim, n", [(1, 8), (1, 1024), (1, 2 ** 16), (2, 8),
                                    (2, 64), (3, 8), (3, 32)])
@pytest.mark.parametrize("length", [2 * np.pi, 50.0, 32000.0])
def test_axis_arrays_are_the_stored_formulas_bitwise(dim, n, length):
    # coords, indices and wavenumbers are built when read; they keep the
    # bits of the arrays build_grid once stored, one per axis, and xi_mag
    # those of the table formed from one copy of them per axis.
    grid = build_grid(GridSpec(dim, n, length))
    j = np.fft.fftfreq(n, d=1.0 / n)
    x = np.arange(n) * (length / n) - length / 2.0
    xi = 2.0 * np.pi * j / length
    for got, want in ((grid.indices, j), (grid.coords, x),
                      (grid.wavenumbers, xi)):
        assert len(got) == dim
        for axis in got:
            assert axis.dtype == want.dtype
            assert axis.tobytes() == want.tobytes()
    half = (slice(None),) * (dim - 1) + (slice(0, n // 2 + 1),)
    mags = np.meshgrid(*(xi.copy() for _ in range(dim)), indexing="ij",
                       sparse=True)
    want = np.sqrt(sum(m[half] * m[half] for m in mags))
    assert grid.xi_mag.shape == want.shape
    assert grid.xi_mag.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [GridSpec(1, 2 ** 16, 32000.0),
                                  GridSpec(2, 256, 50.0)])
def test_build_grid_retains_only_its_magnitude_table(spec):
    # The per-axis arrays are built when read, so a grid holds xi_mag and
    # a few hundred bytes of objects (measured 696 B in 1-D).  Stored
    # per-axis arrays exceed the headroom: 1.5 MiB at N = 2^16 in 1-D.
    build_grid(spec)  # first-call imports are not the grid's memory
    tracemalloc.start()
    try:
        grid = build_grid(spec)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= grid.xi_mag.nbytes + 4096


def test_grids_compare_and_hash_by_their_spec():
    # == once compared the xi_mag arrays too and raised; hash raised
    spec = GridSpec(2, 16, 3.0)
    a, b = build_grid(spec), build_grid(spec)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    other = build_grid(GridSpec(2, 16, 4.0))
    assert a != other and a != spec
    assert {a: 1}[b] == 1


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
    # scaled by the peak so that the reference itself cannot underflow;
    # numpy divides by it as full * (1 / peak), and 1 / peak overflows for
    # peaks below about 5.6e-309, so such a pair is first scaled by 2^64
    peak = np.max(np.abs(full)) or 1.0
    scale = 2.0 ** 64 if peak < 1e-300 else 1.0
    unit = (full * scale) / (peak * scale)
    want = peak * np.sqrt(np.sum(np.abs(unit) ** 2)
                          / grid.box_length ** grid.dim)
    assert abs(_half_l2_rows(grid, half) - want) <= 1e-12 * want


@pytest.mark.parametrize("amplitude", [1e-160, 1e-300, 1e200, 1e300])
def test_half_l2_of_tiny_fields_is_linear(amplitude):
    # Squares and powers of such values underflow or overflow; the L2 and
    # L^m norms must not.
    grid = build_grid(GridSpec(3, 8, 5.0))
    values = np.random.default_rng(3).standard_normal(grid.spec.shape)
    unit = _half_l2_rows(grid, _forward_half(grid, values))
    tiny = _half_l2_rows(grid, _forward_half(grid, amplitude * values))
    assert abs(tiny - amplitude * unit) <= 1e-13 * amplitude * unit
    for m in (1.0, 1.5, 2.0):
        unit = _lm_norm(grid, values, m)
        scaled = _lm_norm(grid, amplitude * values, m)
        assert abs(scaled - amplitude * unit) <= 1e-13 * amplitude * unit


def test_norms_of_a_field_whose_coefficient_peak_is_subnormal():
    # Every sample is the least normal double; the one nonzero coefficient,
    # 64 * 2.2e-308 * (0.5 / 8)^2 = 5.6e-309, has a reciprocal past the
    # float range.  The L2 norm is the sample times sqrt(L^2) = 0.5.
    grid = build_grid(GridSpec(2, 8, 0.5))
    sample = 2.2250738585072014e-308
    half = _forward_half(grid, np.full(grid.shape, sample))
    want = 0.5 * sample
    assert abs(_half_l2_rows(grid, half) - want) <= 1e-15 * want
    peak, energy = _half_energy(grid, half)
    assert np.all(np.isfinite(energy))
    flat = _multiplier_l2(peak, np.ones(grid.xi_mag.shape), energy,
                          np.empty(grid.xi_mag.shape))
    assert abs(flat - want) <= 1e-15 * want


@settings(deadline=None, max_examples=60)
@given(real_fields())
def test_real_transform_pair_returns_samples(case):
    grid, values = case
    back = _inverse_half(grid, _forward_half(grid, values))
    assert np.max(np.abs(back - values)) <= 1e-12 * np.max(np.abs(values))


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 3), st.data(),
       st.lists(st.one_of(st.just(0.0), st.integers(-300, 300)),
                min_size=1, max_size=9),
       st.sampled_from([None, 0.5, 1.0, 2.5]), st.integers(0, 2 ** 32 - 1))
def test_half_l2_rows_are_the_row_norms_bitwise(dim, data, exponents, s,
                                                 seed):
    # Amplitudes 1e-300 .. 1e300 and zero rows: the extremes take the
    # rescale path, ordinary rows the batched sum.
    grid = build_grid(GridSpec(dim, data.draw(st.sampled_from(SIZES[dim])),
                               data.draw(st.floats(0.5, 100.0))))
    half = grid.xi_mag.shape
    rng = np.random.default_rng(seed)
    scale = np.array([0.0 if e == 0.0 else 10.0 ** e for e in exponents])
    rows = (rng.standard_normal((len(scale),) + half)
            + 1j * rng.standard_normal((len(scale),) + half))
    rows *= scale.reshape((-1,) + (1,) * dim)
    mult = None if s is None else grid.xi_mag ** s
    # buffers may hold more rows than the block
    out = tuple(np.empty((len(scale) + 2,) + half) for _ in range(2))
    got = _half_l2_rows(grid, rows, mult, out)
    want = np.array([_half_l2_rows(grid, r if mult is None else mult * r)
                     for r in rows])
    assert got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 3), st.data(),
       st.lists(st.sampled_from([0.0, 1.0, 1e-200, 1e200, 1e-320, 1e99,
                                 1e149, 1e198]),
                min_size=1, max_size=7),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.integers(0, 2 ** 32 - 1))
def test_lm_norm_rows_are_the_row_norms_bitwise(dim, data, amplitudes, m,
                                                seed):
    # Ordinary rows take the block's power and row sum; rows near 1e-200
    # and 1e200 (and zero rows) take the rescale rule, in the same block.
    # 1e99, 1e149 and 1e198 put |f|^m near the unscaled bound 1e300 / N^n
    # for m = 3, 2 and 1.5.
    grid = build_grid(GridSpec(dim, data.draw(st.sampled_from(SIZES[dim])),
                               data.draw(st.floats(0.5, 100.0))))
    rng = np.random.default_rng(seed)
    scale = np.array(amplitudes).reshape((-1,) + (1,) * dim)
    rows = rng.standard_normal((len(amplitudes),) + grid.shape) * scale
    want = np.array([_lm_norm(grid, row, m) for row in rows])
    assert _lm_norm(grid, rows, m).tobytes() == want.tobytes()
    # the block itself as the work array, as the Picard map passes it
    assert _lm_norm(grid, rows, m, out=rows).tobytes() == want.tobytes()


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 3), st.integers(0, 1), st.integers(1, 4), st.data())
def test_parseval_sum_is_the_reference_formula_bitwise(dim, lead, k, data):
    n = data.draw(st.sampled_from(SIZES[dim]))
    half = (n,) * (dim - 1) + (n // 2 + 1,)
    sq = data.draw(hnp.arrays(np.float64, (k,) * lead + half,
                              elements=st.floats(0.0, 1e6)))
    got, want = _parseval_sum(sq, lead), parseval_reference(sq, lead)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 3), st.integers(0, 1), st.data(),
       st.lists(st.sampled_from([1e-100, 1e-3, 1.0, 1e50, 1e100]),
                min_size=1, max_size=4), st.integers(0, 2 ** 32 - 1))
def test_l1_norm_is_the_reference_sum_bitwise(dim, lead, data, amplitudes,
                                              seed):
    # Amplitudes inside the unscaled range: m = 1 takes no power pass.
    grid = build_grid(GridSpec(dim, data.draw(st.sampled_from(SIZES[dim])),
                               data.draw(st.floats(0.5, 100.0))))
    rng = np.random.default_rng(seed)
    scale = np.array(amplitudes).reshape((-1,) + (1,) * dim)
    rows = rng.standard_normal((len(amplitudes),) + grid.shape) * scale
    want = np.array([l1_reference(grid, row) for row in rows])
    if lead:
        assert _lm_norm(grid, rows, 1.0).tobytes() == want.tobytes()
    else:
        for row, w in zip(rows, want):
            got = _lm_norm(grid, row, 1.0)
            assert type(got) is float and got == w
