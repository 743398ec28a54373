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
nothing cancels.

The difference quotients above cancel wherever ``(1 - k) t`` is small,
and are 0/0 at the double root ``k = 1``.  ``velocity_kernels`` takes
the slower rate ``lo = min(k, 1)`` out of ``K1`` instead (with
``hi = max(k, 1)``):

    K1  = t exp(-lo t) phi1(x),   x = -|1 - k| t,
    dK1 = exp(-hi t) - lo K1,

where ``phi1(x) = expm1(x)/x`` (Cox & Matthews, J. Comput. Phys. 176,
2002) is formed with ``x`` floored at ``-1e-300``, so it reads exactly
1 at ``x = 0``.  Every factor is positive and ``dK1`` subtracts only
where it crosses zero, so one formula holds for every ``k`` and ``t``,
with no band around ``k = 1``.  ``duhamel_weight`` integrates ``K1``
over one step.

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

# 12-point Gauss-Legendre rule on [-1, 1], (node, weight) for the
# positive nodes; the negative nodes mirror them with the same weights.
# These are the values of numpy.polynomial.legendre.leggauss(12), which
# is not imported at run time: numpy.polynomial adds 1.4 MiB of memory.
GAUSS_LEGENDRE_12 = (
    (0.1252334085114689, 0.2491470458134027),
    (0.3678314989981802, 0.2334925365383546),
    (0.5873179542866175, 0.20316742672306573),
    (0.7699026741943047, 0.16007832854334642),
    (0.9041172563704748, 0.10693932599531907),
    (0.9815606342467192, 0.04717533638651141),
)


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

    One formula for every mode (module docstring): ``K1 = t exp(-lo t)
    phi1(-|1 - k| t)`` and ``dK1 = exp(-hi t) - lo K1``, where
    ``exp(-lo t)`` and ``exp(-hi t)`` are the larger and the smaller
    of ``exp(-k t)`` and ``exp(-t)``.  The values go into three arrays
    (``K1``, ``dK1`` and a scratch table) allocated once for all times,
    like ``|1 - k|``.  The yielded arrays are overwritten at the next
    step; copy them to keep them.
    """
    k = np.asarray(k, dtype=np.float64)
    gap, K1, dK1, scratch = (np.empty_like(k) for _ in range(4))
    np.abs(np.subtract(1.0, k, out=gap), out=gap)
    for t in times:
        t = float(t)
        e_t = np.exp(-t)
        x = np.minimum(np.multiply(gap, -t, out=scratch), -1e-300,
                       out=scratch)
        np.divide(np.expm1(x, out=K1), x, out=K1)  # phi1(x)
        K1 *= t
        e_kt = np.exp(np.multiply(k, -t, out=dK1), out=dK1)
        K1 *= np.maximum(e_kt, e_t, out=scratch)  # exp(-lo t)
        np.minimum(e_kt, e_t, out=dK1)  # exp(-hi t)
        dK1 -= np.multiply(np.minimum(k, 1.0, out=scratch), K1, out=scratch)
        yield K1, dK1


def duhamel_weight(k: np.ndarray, dt: float) -> np.ndarray:
    """``int_0^dt K1(tau, k) dtau``, the forcing response weight.

    Where ``|1 - k| dt > 1`` this is the closed form
    ``(psi(k) - psi(1)) / (1 - k)`` with ``psi(a) = (1 - exp(-a dt))/a``;
    there ``k dt > 1 + dt``, so ``psi(k) < 0.69 psi(1)`` and the
    difference loses less than a digit.  Elsewhere ``min(k, 1) dt`` and
    ``|1 - k| dt`` are at most 1, ``K1`` is smooth on the scale of the
    step, and the 12-point Gauss-Legendre rule of ``velocity_kernels``
    is exact to rounding.  Both hold only for ``dt <= 1``, which also
    keeps ``k = 0`` on the quadrature side.
    """
    if not 0 < dt <= 1:
        raise ValueError(f"dt must lie in (0, 1]; got {dt}")
    k = np.asarray(k, dtype=np.float64)
    out = np.empty_like(k)
    near = np.abs(1.0 - k) * dt <= 1.0
    far = k[~near]
    out[~near] = (-np.expm1(-far * dt) / far + np.expm1(-dt)) / (1.0 - far)
    half = 0.5 * dt
    taus = [half * (1.0 + s * x) for x, _ in GAUSS_LEGENDRE_12
            for s in (-1, 1)]
    weights = [half * w for _, w in GAUSS_LEGENDRE_12 for _ in (-1, 1)]
    out[near] = sum(w * K1 for w, (K1, _)
                    in zip(weights, velocity_kernels(k[near], taus)))
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
