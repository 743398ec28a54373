"""Model parameters for the damped sigma-evolution equation, and the one
error type of every check that refuses input before a run starts."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ModelParams", "ValidationError"]


class ValidationError(ValueError):
    """Input refused before any work starts; the CLI exits 2 for it."""


@dataclass(frozen=True)
class ModelParams:
    """The tuple (n, sigma, alpha, p, m).

    ``n`` is the space dimension, ``sigma >= 1`` the fractional-Laplacian
    order, ``alpha in (0, n)`` the smoothing order of the nonlocal
    nonlinearity, ``p > 1`` the nonlinearity power, and ``m in [1, 2]``
    the integrability exponent of the data (``m = 2`` encodes the
    pure-L2 regime).
    """

    n: int
    sigma: float
    alpha: float
    p: float
    m: float

    def __post_init__(self):
        if not (math.isfinite(self.n) and int(self.n) == self.n >= 1):
            raise ValidationError(f"n must be a positive integer; got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if not (self.sigma >= 1 and math.isfinite(self.sigma)):
            raise ValidationError(f"sigma must be finite and >= 1; got {self.sigma}")
        if not 0.0 < self.alpha < self.n:
            raise ValidationError(
                f"alpha must lie in (0, n) = (0, {self.n}); got {self.alpha}")
        if not (self.p > 1 and math.isfinite(self.p)):
            raise ValidationError(f"p must be finite and > 1; got {self.p}")
        if not 1.0 <= self.m <= 2.0:
            raise ValidationError(f"m must lie in [1, 2]; got {self.m}")
