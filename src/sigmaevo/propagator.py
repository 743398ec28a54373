"""Exact per-mode solution of the doubly damped linear flow.

Writing ``k = |xi|^(2*sigma)`` for the symbol of the spatial operator,
each Fourier mode of the linear equation obeys the scalar ODE

    v'' + (1 + k) v' + k v = 0,

whose characteristic polynomial factors as ``(lambda + 1)(lambda + k)``.
The fundamental solutions are therefore combinations of ``exp(-t)`` and
``exp(-k t)``:

    K1(t, k) = (exp(-k t) - exp(-t)) / (1 - k)        response to v'(0)=1
    A(t, k)  = (exp(-k t) - k exp(-t)) / (1 - k)      response to v(0)=1

with time derivatives ``dK1 = (-k exp(-k t) + exp(-t)) / (1 - k)`` and
``dA = -k K1``.  The double root at ``k = 1`` is removable; inside a
band ``|1 - k| <= 1e-4`` the kernels are evaluated through
``phi1(z) = (exp(z) - 1)/z`` with ``z = (1 - k) t``, which is itself
series-expanded below ``|z| < 1e-3``.  Each table is evaluated in
closed form over all entries in one pass, and only the band entries
(and, in the forcing weight, ``k = 0``) are overwritten.

From rest the flow is ``u_hat(t) = K1(t, k) u1_hat`` mode by mode, so
its norms are weighted sums of kernel squares against the data's mode
energies: ``||u||_2^2 = sum w K1^2 E``, ``||u_t||_2^2 = sum w dK1^2 E``
and ``|u|_{H^sigma}^2 = sum w K1^2 k E`` with ``E = |u1_hat|^2``
(``grid._half_energy``) and ``w`` the half-spectrum Parseval weight
(``grid._parseval_sum``).  ``velocity_kernels`` serves
these sums one time after another from buffers allocated once.

``sigmaevo.checks.ode_oracle`` integrates the mode ODE adaptively as an
independent check of these closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import SpectralField
from .params import ModelParams

__all__ = [
    "kernel_arrays",
    "velocity_kernels",
    "duhamel_weight",
    "propagate_linear",
    "decay_exponent",
]

# Half-width of the band around the double root k = 1 that uses the
# series-stabilized evaluation.
DOUBLE_ROOT_BAND = 1e-4
# Below this |z| the phi1 helper switches from expm1 to its Taylor series.
PHI1_SERIES_CUTOFF = 1e-3


def _phi1(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1)/z, stable near z = 0 (phi1(0) = 1)."""
    z = np.asarray(z, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(np.expm1(z) / z)  # writable for a scalar z too
    small = np.abs(z) < PHI1_SERIES_CUTOFF
    zs = z[small]
    term = np.ones_like(zs)
    acc = np.ones_like(zs)
    for j in range(2, 9):  # 1 + z/2! + ... + z^7/8!
        term = term * zs / j
        acc = acc + term
    out[small] = acc
    return out


def _kernels_far(k: np.ndarray, t: float):
    # Direct closed forms, valid away from the double root.
    e_kt = np.exp(-k * t)
    e_t = np.exp(-t)
    denom = 1.0 - k
    K1 = (e_kt - e_t) / denom
    A = (e_kt - k * e_t) / denom
    dK1 = (-k * e_kt + e_t) / denom
    return A, K1, dK1


def _kernels_near(k: np.ndarray, t: float):
    # Series-stabilized forms around k = 1, z = (1-k) t.
    z = (1.0 - k) * t
    phi = _phi1(z)
    e_t = np.exp(-t)
    K1 = t * e_t * phi
    A = e_t * (1.0 + t * phi)
    # exp(z) = 1 + z*phi1(z) keeps the branch internally consistent.
    dK1 = e_t * ((1.0 + z * phi) - t * phi)
    return A, K1, dK1


def kernel_arrays(k: np.ndarray, t: float):
    """Vectorized kernels ``(A, K1, dA, dK1)`` for an array of k values."""
    k = np.asarray(k, dtype=np.float64)
    if np.any(k < 0):
        raise ValueError("k must be nonnegative")
    if t < 0:
        raise ValueError(f"t must be nonnegative; got {t}")
    # The closed form's only 0/0 is at k = 1, inside the patched band;
    # asarray keeps the tables writable for a scalar k.
    with np.errstate(divide="ignore", invalid="ignore"):
        A, K1, dK1 = (np.asarray(v) for v in _kernels_far(k, t))
    near = np.abs(1.0 - k) <= DOUBLE_ROOT_BAND
    A[near], K1[near], dK1[near] = _kernels_near(k[near], t)
    dA = -k * K1
    return A, K1, dA, dK1


def velocity_kernels(k: np.ndarray, times):
    """Yield ``(K1, dK1)`` at each of ``times``, the flow from rest.

    Bitwise the tables of ``kernel_arrays`` without ``A`` and ``dA``:
    the same operations in the same order, written into three arrays
    (``exp(-k t)``, ``K1`` and ``dK1``) allocated once for all times,
    like ``1 - k`` and the double-root band.  The yielded arrays are
    overwritten at the next step; copy them to keep them.
    """
    k = np.asarray(k, dtype=np.float64)
    denom = 1.0 - k
    near = np.abs(denom) <= DOUBLE_ROOT_BAND
    k_near = k[near]
    e_kt, K1, dK1 = (np.empty_like(k) for _ in range(3))
    for t in times:
        t = float(t)
        # k * (-t) and e_t - k e_kt round exactly like -k * t and
        # -k * e_kt + e_t: IEEE rounding is symmetric in sign.
        np.exp(np.multiply(k, -t, out=e_kt), out=e_kt)
        e_t = np.exp(-t)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.subtract(e_kt, e_t, out=K1)
            K1 /= denom
            np.subtract(e_t, np.multiply(k, e_kt, out=dK1), out=dK1)
            dK1 /= denom
        _, K1[near], dK1[near] = _kernels_near(k_near, t)
        yield K1, dK1


def _band_moments(dt: float) -> list[float]:
    """``M_j = int_0^dt tau^j exp(-tau) dtau`` for ``j = 1, 2, 3``.

    ``M_j = j! exp(-dt) sum_{i>j} dt^i / i!``, a series of positive
    terms, so nothing cancels at small ``dt``; the tails are summed
    smallest term first.
    """
    terms = [1.0]  # dt^i / i!
    while len(terms) < 6 or terms[-1] > 1e-17 * terms[4]:
        terms.append(terms[-1] * dt / len(terms))
    tails = np.cumsum(terms[:0:-1])[::-1]  # tails[j] = sum_{i>j} dt^i / i!
    return [math.factorial(j) * math.exp(-dt) * tails[j] for j in (1, 2, 3)]


def duhamel_weight(k: np.ndarray, dt: float) -> np.ndarray:
    """Closed form of ``int_0^dt K1(tau, k) dtau`` (forcing response weight).

    Away from the double root this is ``(psi(k) - psi(1)) / (1 - k)``
    with ``psi(a) = (1 - exp(-a dt))/a``; inside the band around k = 1
    it is evaluated as a short series in ``1 - k`` with the moments of
    ``_band_moments``.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive; got {dt}")
    k = np.asarray(k, dtype=np.float64)
    psi_1 = -np.expm1(-dt)
    # 0/0 arises only at k = 0 and k = 1; both are patched below.
    with np.errstate(divide="ignore", invalid="ignore"):
        psi_k = np.asarray(-np.expm1(-k * dt) / k)
        psi_k[k == 0] = dt
        out = np.asarray((psi_k - psi_1) / (1.0 - k))

    near = np.abs(1.0 - k) <= DOUBLE_ROOT_BAND
    w = 1.0 - k[near]
    m1, m2, m3 = _band_moments(dt)
    out[near] = m1 + (w / 2.0) * m2 + (w * w / 6.0) * m3
    return out


def propagate_linear(u1: SpectralField, sigma: float, t: float
                     ) -> tuple[SpectralField, SpectralField]:
    """Solve the linear flow from rest with initial velocity ``u1``.

    Returns spectral ``(u, du/dt)`` at time ``t``; exact per mode, so
    ``t = 0`` gives back ``(0, u1)`` identically.
    """
    grid = u1.grid
    k = grid.xi_mag ** (2.0 * sigma)
    _, K1, _, dK1 = kernel_arrays(k, float(t))
    return (SpectralField(grid, K1 * u1.coeffs),
            SpectralField(grid, dK1 * u1.coeffs))


def decay_exponent(params: ModelParams, a: float, j: int) -> float:
    """Predicted algebraic decay exponent of ``(1+t)`` for the linear flow.

    ``a`` is the order of the spatial seminorm and ``j`` the number of
    time derivatives.  With ``m = 2`` the data-integrability gain
    vanishes and only ``-a/(2 sigma) - j`` remains.
    """
    if a < 0:
        raise ValueError(f"a must be >= 0; got {a}")
    if j not in (0, 1):
        raise ValueError(f"j must be 0 or 1; got {j}")
    gain = (params.n / (2.0 * params.sigma)) * (1.0 / params.m - 0.5)
    return -gain - a / (2.0 * params.sigma) - j
