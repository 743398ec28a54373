import pytest

from sigmaevo.params import ModelParams


def test_valid_point():
    p = ModelParams(n=2, sigma=1.5, alpha=0.7, p=3.0, m=1.2)
    assert p.n == 2 and isinstance(p.n, int)


@pytest.mark.parametrize("kw,msg", [
    (dict(n=0), "n"),
    (dict(sigma=0.9), "sigma"),
    (dict(alpha=0.0), "alpha"),
    (dict(alpha=1.0), "alpha"),     # upper end of (0, n) for n = 1
    (dict(p=1.0), "p"),
    (dict(m=0.9), "m"),
    (dict(m=2.1), "m"),
    (dict(n=float("nan")), "n"),
    (dict(n=float("inf")), "n"),
    (dict(sigma=float("nan")), "sigma"),
    (dict(sigma=float("inf")), "sigma"),
    (dict(alpha=float("nan")), "alpha"),
    (dict(p=float("nan")), "p"),
    (dict(p=float("inf")), "p"),
    (dict(m=float("nan")), "m"),
    (dict(m=float("inf")), "m"),
])
def test_range_violations(kw, msg):
    base = dict(n=1, sigma=1.0, alpha=0.5, p=4.0, m=1.0)
    base.update(kw)
    with pytest.raises(ValueError, match=msg):
        ModelParams(**base)


def test_m_equal_two_is_allowed():
    # m = 2 encodes the pure-L2 regime
    ModelParams(n=1, sigma=1.0, alpha=0.5, p=4.0, m=2.0)
