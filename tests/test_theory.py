import numpy as np
import pytest

from sigmaevo.checks import integral_inequality_check
from sigmaevo.grid import GridSpec, RealField, build_grid
from sigmaevo.operators import lebesgue_norm, sobolev_seminorm
from sigmaevo.params import ModelParams
from sigmaevo.theory import admissibility, critical_exponent, gn_theta

from full_layout import full_inverse


def test_critical_exponent_values():
    assert critical_exponent(1, 1.0, 1.0) == 3.0
    assert critical_exponent(2, 1.0, 1.0) == 2.0
    assert critical_exponent(4, 1.5, 2.0) == 2.5


def test_critical_exponent_domain():
    with pytest.raises(ValueError):
        critical_exponent(1, 2.0, 1.0)
    with pytest.raises(ValueError):
        critical_exponent(1, 1.0, 0.5)


def test_gn_theta_values():
    assert gn_theta(4.0, 2, 1.0) == pytest.approx(0.5)
    assert gn_theta(2.0, 3, 1.7) == 0.0
    assert gn_theta(8.0 / 3.0, 1, 1.0) == pytest.approx(0.125)


def test_gn_theta_monotone_in_q():
    qs = np.linspace(1.1, 30.0, 50)
    vals = [gn_theta(q, 2, 1.5) for q in qs]
    assert np.all(np.diff(vals) > 0)


def test_admissibility_reference_point():
    params = ModelParams(n=1, sigma=1.0, alpha=0.5, p=4.0, m=1.0)
    rep = admissibility(params)
    assert rep.p_lower == pytest.approx(3.0)
    assert rep.p_lower_ok
    assert rep.in_low_dim_branch and rep.p_upper == np.inf
    assert rep.p_integrability == pytest.approx(3.5)
    assert rep.p_integrability_ok
    assert rep.overall
    # The L^m-side boundedness exponent fails its hypothesis here.
    assert rep.riesz_q_sm == pytest.approx(2.0 / 3.0)
    assert not rep.riesz_q_sm_ok
    assert any("q_sm" in w for w in rep.warnings)


def test_admissibility_high_dimension_branch():
    params = ModelParams(n=3, sigma=1.0, alpha=1.0, p=4.0, m=1.0)
    rep = admissibility(params)
    assert not rep.in_low_dim_branch
    assert rep.dim_bound == pytest.approx((4.0 + np.sqrt(32.0)) / 2.0)
    assert rep.dim_ok
    assert rep.p_upper == pytest.approx(5.0)
    assert rep.p_upper_ok
    too_big = admissibility(ModelParams(n=3, sigma=1.0, alpha=1.0, p=6.0, m=1.0))
    assert not too_big.p_upper_ok and not too_big.overall


def test_admissibility_smoothing_limit_recovers_critical_exponent():
    params = ModelParams(n=1, sigma=1.0, alpha=1e-9, p=4.0, m=1.0)
    rep = admissibility(params)
    assert abs(rep.p_integrability - critical_exponent(1, 1.0, 1.0)) <= 1e-8


def test_admissibility_boundary_classification():
    # Non-strict at the lower bound, strict at the integrability bound.
    at_lower = ModelParams(n=1, sigma=1.0, alpha=0.5, p=3.0, m=1.0)
    assert admissibility(at_lower).p_lower_ok
    at_integ = ModelParams(n=1, sigma=1.0, alpha=0.5, p=3.5, m=1.0)
    assert not admissibility(at_integ).p_integrability_ok


def test_dimension_bound_monotone():
    alphas = np.linspace(0.1, 2.0, 8)
    sigmas = np.linspace(1.0, 3.0, 8)
    for m in (1.0, 1.3, 1.7):
        for sigma in (1.0, 2.0):
            vals = [admissibility(ModelParams(n=9, sigma=sigma, alpha=a,
                                              p=2.0, m=m)).dim_bound
                    for a in alphas]
            assert np.all(np.diff(vals) >= -1e-12)
        for alpha in (0.5, 1.5):
            vals = [admissibility(ModelParams(n=9, sigma=s, alpha=alpha,
                                              p=2.0, m=m)).dim_bound
                    for s in sigmas]
            assert np.all(np.diff(vals) >= -1e-12)


def test_integral_inequality_frozen_maxima():
    t_grid = np.logspace(0.0, 4.0, 9)
    # regression values frozen from the first verified run
    frozen = {(2.0, 0.5): 1.04, (1.5, 1.2): 2.72, (3.0, 3.0): 1.30}
    for (a, b), bound in frozen.items():
        ratio = integral_inequality_check(a, b, t_grid)
        assert 0.0 < ratio <= bound
    assert integral_inequality_check(2.0, 0.5, t_grid) <= 10.0


def test_integral_inequality_validation():
    with pytest.raises(ValueError, match="max"):
        integral_inequality_check(0.5, 0.9, [10.0])
    with pytest.raises(ValueError, match="t_grid"):
        integral_inequality_check(2.0, 0.5, [0.5])
    with pytest.raises(ValueError, match="t_grid"):
        integral_inequality_check(2.0, 0.5, [2e4])


def band_limited_field(grid, rng):
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    n = grid.spec.points_per_axis
    j = grid.indices[0]
    band = (np.abs(j) <= n / 8) & (j != 0)
    coeffs[band] = rng.standard_normal(band.sum()) \
        + 1j * rng.standard_normal(band.sum())
    # enforce conjugate symmetry so the field is real
    sym = coeffs.copy()
    for idx in np.nonzero(band)[0]:
        sym[int(-j[idx]) % n] = np.conj(coeffs[idx])
    return RealField(grid, full_inverse(grid, sym))


def test_gn_ratio_bounded_and_scale_invariant():
    # Interpolation-inequality ratio over 200 random band-limited fields:
    # finite, and exactly invariant under amplitude scaling.
    grid = build_grid(GridSpec(1, 256, 40.0))
    rng = np.random.default_rng(77)
    q, n, sigma = 4.0, 1, 1.0
    theta = gn_theta(q, n, sigma)
    ratios = []
    for _ in range(200):
        y = band_limited_field(grid, rng)
        num = lebesgue_norm(y, q)
        den = sobolev_seminorm(y, sigma) ** theta \
            * lebesgue_norm(y, 2.0) ** (1.0 - theta)
        ratio = num / den
        ratios.append(ratio)
        lam = float(rng.uniform(0.1, 10.0))
        scaled = RealField(grid, lam * y.values)
        num2 = lebesgue_norm(scaled, q)
        den2 = sobolev_seminorm(scaled, sigma) ** theta \
            * lebesgue_norm(scaled, 2.0) ** (1.0 - theta)
        assert abs(num2 / den2 - ratio) <= 1e-12 * ratio
    assert np.isfinite(ratios).all()
    assert max(ratios) < 10.0  # single finite constant for this (q, n, sigma)
