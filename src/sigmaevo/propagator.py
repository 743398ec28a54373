"""Exact per-mode solution of the doubly damped linear flow.

Writing ``k = |xi|^(2*sigma)`` for the symbol of the spatial operator,
each Fourier mode of the linear equation obeys the scalar ODE

    v'' + (1 + k) v' + k v = 0,

whose characteristic polynomial factors as ``(lambda + 1)(lambda + k)``.
The fundamental solutions are therefore combinations of ``exp(-t)`` and
``exp(-k t)``; the response to ``v'(0) = 1`` and its time derivative are

    K1(t, k)  = (exp(-k t) - exp(-t)) / (1 - k)
    dK1(t, k) = (exp(-t) - k exp(-k t)) / (1 - k),

and the factorization gives the response to ``v(0) = 1`` from them:
``A = K1 + exp(-t)`` and ``dA = -k K1`` (both sides solve the ODE with
the same initial values).  ``A`` adds two non-negative terms, so
nothing cancels.  ``K1`` and ``dK1`` have one closed form, in
``velocity_kernels``, evaluated over the whole table in one pass.  The
double root at ``k = 1`` is removable; inside a band
``|1 - k| <= 1e-4`` the entries are overwritten through
``phi1(z) = (exp(z) - 1)/z`` with ``z = (1 - k) t``.

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

# Half-width of the band around the double root k = 1 whose kernels are
# evaluated through phi1.
DOUBLE_ROOT_BAND = 1e-4


def _phi1(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1)/z, with phi1(0) = 1."""
    z = np.asarray(z, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(np.expm1(z) / z)  # writable for a scalar z too
    out[z == 0] = 1.0
    return out


def _kernels_near(k: np.ndarray, t: float):
    # (K1, dK1) through phi1 around k = 1, z = (1-k) t.
    z = (1.0 - k) * t
    phi = _phi1(z)
    e_t = np.exp(-t)
    # exp(z) = 1 + z*phi1(z) keeps the branch internally consistent.
    return t * e_t * phi, e_t * ((1.0 + z * phi) - t * phi)


def kernel_arrays(k: np.ndarray, t: float):
    """Vectorized kernels ``(A, K1, dA, dK1)`` for an array of k values."""
    k = np.asarray(k, dtype=np.float64)
    if np.any(k < 0):
        raise ValueError("k must be nonnegative")
    if t < 0:
        raise ValueError(f"t must be nonnegative; got {t}")
    K1, dK1 = next(velocity_kernels(k, (t,)))
    return K1 + np.exp(-t), K1, -k * K1, dK1


def velocity_kernels(k: np.ndarray, times):
    """Yield ``(K1, dK1)`` at each of ``times``, the flow from rest.

    The one closed form of both kernels: ``(exp(-k t) - exp(-t))/(1 - k)``
    and ``(exp(-t) - k exp(-k t))/(1 - k)`` over the whole table, with
    the double-root band overwritten by ``_kernels_near``.  The values
    go into three arrays (``exp(-k t)``, ``K1`` and ``dK1``) allocated
    once for all times, like ``1 - k`` and the band.  The yielded
    arrays are overwritten at the next step; copy them to keep them.
    """
    k = np.asarray(k, dtype=np.float64)
    denom = 1.0 - k
    near = np.abs(denom) <= DOUBLE_ROOT_BAND
    k_near = k[near]
    e_kt, K1, dK1 = (np.empty_like(k) for _ in range(3))
    for t in times:
        t = float(t)
        np.exp(np.multiply(k, -t, out=e_kt), out=e_kt)
        e_t = np.exp(-t)
        # the only 0/0 is at k = 1, inside the band overwritten below
        with np.errstate(divide="ignore", invalid="ignore"):
            np.subtract(e_kt, e_t, out=K1)
            K1 /= denom
            np.subtract(e_t, np.multiply(k, e_kt, out=dK1), out=dK1)
            dK1 /= denom
        K1[near], dK1[near] = _kernels_near(k_near, t)
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
