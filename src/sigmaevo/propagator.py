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
series-expanded below ``|z| < 1e-3``.

An adaptive ODE integration (``ode_oracle``) provides an independent
check of these closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import gammainc

from .grid import SpectralField
from .params import ModelParams

__all__ = [
    "PropagatorKernels",
    "kernels",
    "kernel_arrays",
    "duhamel_weight",
    "propagate_linear",
    "decay_exponent",
    "ode_oracle",
]

# Half-width of the band around the double root k = 1 that uses the
# series-stabilized evaluation.
DOUBLE_ROOT_BAND = 1e-4
# Below this |z| the phi1 helper switches from expm1 to its Taylor series.
PHI1_SERIES_CUTOFF = 1e-3


@dataclass(frozen=True)
class PropagatorKernels:
    """Per-mode kernel values at damping coefficient ``k`` and time ``t``."""

    k: float
    t: float
    A: float
    K1: float
    dA: float
    dK1: float


def _phi1(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1)/z, stable near z = 0 (phi1(0) = 1)."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    small = np.abs(z) < PHI1_SERIES_CUTOFF
    zs = z[small]
    term = np.ones_like(zs)
    acc = np.ones_like(zs)
    for j in range(2, 9):  # 1 + z/2! + ... + z^7/8!
        term = term * zs / j
        acc = acc + term
    out[small] = acc
    zb = z[~small]
    out[~small] = np.expm1(zb) / zb
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
    near = np.abs(1.0 - k) <= DOUBLE_ROOT_BAND
    A = np.empty_like(k)
    K1 = np.empty_like(k)
    dK1 = np.empty_like(k)
    if np.any(~near):
        A[~near], K1[~near], dK1[~near] = _kernels_far(k[~near], t)
    if np.any(near):
        A[near], K1[near], dK1[near] = _kernels_near(k[near], t)
    dA = -k * K1
    return A, K1, dA, dK1


def kernels(k: float, t: float) -> PropagatorKernels:
    """Closed-form kernel values at a single ``(k, t)``."""
    A, K1, dA, dK1 = kernel_arrays(np.array([k], dtype=np.float64), float(t))
    return PropagatorKernels(k=float(k), t=float(t),
                             A=float(A[0]), K1=float(K1[0]),
                             dA=float(dA[0]), dK1=float(dK1[0]))


def duhamel_weight(k: np.ndarray, dt: float) -> np.ndarray:
    """Closed form of ``int_0^dt K1(tau, k) dtau`` (forcing response weight).

    Away from the double root this is ``(psi(k) - psi(1)) / (1 - k)``
    with ``psi(a) = (1 - exp(-a dt))/a``; inside the band around k = 1
    it is evaluated as a short series in ``1 - k`` with incomplete-gamma
    moments ``M_j = int_0^dt tau^j exp(-tau) dtau``.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive; got {dt}")
    k = np.asarray(k, dtype=np.float64)
    out = np.empty_like(k)
    near = np.abs(1.0 - k) <= DOUBLE_ROOT_BAND

    kf = k[~near]
    psi_k = np.where(kf > 0, -np.expm1(-kf * dt) / np.where(kf > 0, kf, 1.0), dt)
    psi_1 = -np.expm1(-dt)
    out[~near] = (psi_k - psi_1) / (1.0 - kf)

    kn = k[near]
    w = 1.0 - kn
    m1 = gammainc(2.0, dt) * 1.0
    m2 = gammainc(3.0, dt) * 2.0
    m3 = gammainc(4.0, dt) * 6.0
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


def _ode_kernels(k: float, times, rtol: float = 1e-12,
                 atol: float = 1e-20) -> list[PropagatorKernels]:
    """Kernel values at each of the sorted ``times`` from one adaptive
    integration of the mode ODE.

    The ODE is autonomous, so each segment restarts from the end state
    of the one before.  A stiff method takes over for large k, where the
    fast component decays on the ``1/k`` scale.
    """
    def rhs(_t, y):
        a, da, k1, dk1 = y
        return [da, -(1.0 + k) * da - k * a,
                dk1, -(1.0 + k) * dk1 - k * k1]

    def jac(_t, _y):
        block = np.array([[0.0, 1.0], [-k, -(1.0 + k)]])
        out = np.zeros((4, 4))
        out[:2, :2] = block
        out[2:, 2:] = block
        return out

    options = {"method": "DOP853"}
    if k > 50.0:
        options = {"method": "BDF", "jac": jac}
    y = [1.0, 0.0, 0.0, 1.0]  # columns (A, dA) and (K1, dK1) at t = 0
    start = 0.0
    found = []
    for t in times:
        if t < start:
            raise ValueError(f"times must be sorted; got {tuple(times)}")
        if t > start:
            sol = solve_ivp(rhs, (start, t), y, rtol=rtol, atol=atol,
                            dense_output=False, **options)
            if not sol.success:
                raise RuntimeError(
                    f"kernel ODE integration failed: {sol.message}")
            y, start = sol.y[:, -1], t
        a, da, k1, dk1 = y
        found.append(PropagatorKernels(k=float(k), t=float(t), A=float(a),
                                       K1=float(k1), dA=float(da),
                                       dK1=float(dk1)))
    return found


def ode_oracle(k: float, t: float, rtol: float = 1e-12,
               atol: float = 1e-20) -> PropagatorKernels:
    """Independent kernel values from adaptive integration of the mode ODE.

    Integrates both initial-condition columns of ``v'' + (1+k)v' + kv = 0``
    up to ``t <= 100`` with local tolerance ``1e-12``.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative; got {k}")
    if not 0 <= t <= 100:
        raise ValueError(f"t must lie in [0, 100]; got {t}")
    return _ode_kernels(k, (t,), rtol, atol)[0]
