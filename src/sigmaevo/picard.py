"""Fixed-point view of the Duhamel representation.

``picard_apply`` evaluates the solution map

    O(u)(t) = linear flow from u1  +  int_0^t K1(t - tau) F(u(tau)) dtau

on every snapshot of a densely stored trajectory, with the time
convolution quadratured by the trapezoid rule over the stored snapshots.
Iterating from the zero trajectory demonstrates the contraction of the
map for small data amplitudes.

The convolution is carried from one snapshot to the next instead of
being summed afresh at each.  Let ``S_i`` be the trapezoid sum at
snapshot ``i`` together with its time derivative, ``S_0 = 0``.  The
per-mode kernel matrix ``M(t) = [[A, K1], [dA, dK1]]`` is the
fundamental matrix of the mode ODE, so ``M(t + s) = M(t) M(s)`` and

    S_i = M(dt) (S_{i-1} + [0, (dt/2) f_{i-1}]) + [0, (dt/2) f_i]

is exactly the quadrature of the full sum over all earlier snapshots.
It costs O(n_snap N) time and holds only the current sum and forcing,
and it never divides by ``1 - k``, so the double-root band needs no
branch of its own.

The free flow rides the same one-step matrix: ``F_0 = (0, u1)`` and
``F_i = M(dt) F_{i-1}``, so no closed-form kernel is evaluated per
snapshot.  ``F`` and ``S`` are advanced as separate arrays and summed
only for the output; ``F`` is then bitwise the same in every iterate,
and the small differences between late iterates keep their resolution.

Each call writes its states into one ``(2, n_snap) + half`` block (the
``u`` rows, then the ``u_t`` rows); ``F`` and ``S`` alternate between
two buffer pairs, so no array is allocated per snapshot.  The ``L^m``
norm of a snapshot is taken from the inverse transform of its row; the
L2-type norms are taken after the loop, over chunks of block rows
(``grid._half_l2_rows``), with the bits of one ``_half_l2`` per state.

The caps ``t_end <= MAX_HORIZON`` and ``dt <= MAX_DT`` were sized for the
former O(n_snap^2 N) sum; they are kept until benchmark numbers at
longer horizons justify moving them.
"""

from __future__ import annotations

import numpy as np

from .grid import (RealField, _chunk_rows, _forward_half, _half_l2_rows,
                   _inverse_half, _lm_norm)
from .params import ValidationError
from .solver import SolverConfig, StepTables, Trajectory, _nonlinearity_hat

__all__ = ["picard_apply"]

MAX_HORIZON = 10.0
MAX_DT = 0.05


def picard_apply(traj_in: Trajectory, u1: RealField, config: SolverConfig
                 ) -> Trajectory:
    """One application of the solution map to a stored trajectory.

    Requires a short horizon (``t_end <= 10``) and dense snapshots
    (``dt <= 0.05``, states stored at every step up to ``t_end``), with
    the trajectory, ``u1`` and ``config`` on one grid.  The Duhamel sum
    is advanced by the one-step recurrence of the module docstring, so
    one call costs O(n_snap N); the free part ``K1(t) u1`` is advanced
    by the same one-step matrix ``M(dt)``.  The returned states are row
    views of one block that no other call shares.
    """
    if config.t_end > MAX_HORIZON:
        raise ValidationError(
            f"t_end = {config.t_end} exceeds the fixed-point horizon {MAX_HORIZON}")
    if config.dt > MAX_DT:
        raise ValidationError(
            f"snapshot spacing dt = {config.dt} too coarse; need <= {MAX_DT}")
    if traj_in.states is None:
        raise ValidationError("input trajectory must store states")
    dts = np.diff(traj_in.times)
    if not np.allclose(dts, config.dt, rtol=1e-9, atol=1e-12):
        raise ValidationError("input trajectory must be stored densely (every step)")
    # The horizon cap is on config.t_end; the map runs over traj_in.times.
    t_last = float(traj_in.times[-1])
    if abs(t_last - config.t_end) > 1e-9 * config.t_end:
        raise ValidationError(
            f"input trajectory ends at t = {t_last:g}, not at the "
            f"configured horizon t_end = {config.t_end:g}")
    if traj_in.grid.spec != config.grid:
        raise ValidationError(
            f"input trajectory grid {traj_in.grid.spec} differs from the "
            f"configured grid {config.grid}")
    if u1.grid.spec != config.grid:
        raise ValidationError(
            f"data grid {u1.grid.spec} differs from the configured grid "
            f"{config.grid}")

    grid = traj_in.grid
    params = config.params
    tables = StepTables(grid, params, config.dt, config.dealias)
    half_dt = 0.5 * config.dt
    times = traj_in.times
    n_snap = len(times)

    # free flow F (the pairs of ``tables``) and Duhamel sum S, each
    # advanced from one pair into the other (module docstring)
    free = tables.pairs
    free[0][0].fill(0.0)
    _forward_half(grid, u1.values, out=free[0][1])
    duhamel = tuple((np.zeros_like(u), np.zeros_like(u)) for u, _ in free)
    block = np.empty((2, n_snap) + grid.xi_mag.shape, complex)
    lm = np.empty(n_snap)
    for i, (t, state) in enumerate(zip(times, traj_in.states, strict=True)):
        # f_hat and f_prev take tables.f0 and tables.f1 in turn
        f_hat = _nonlinearity_hat(
            _inverse_half(grid, state[0], out=tables.field), tables, t, i,
            out=(tables.f0, tables.f1)[i % 2])
        cur, prev = i % 2, 1 - i % 2
        if i > 0:
            tables.advance(*free[prev], out=free[cur])
            w_prev = duhamel[prev][1]
            w_prev += np.multiply(half_dt, f_prev, out=tables.scratch)
            _, w_hat = tables.advance(*duhamel[prev], out=duhamel[cur])
            w_hat += np.multiply(half_dt, f_hat, out=tables.scratch)
        f_prev = f_hat
        for c in (0, 1):
            np.add(free[cur][c], duhamel[cur][c], out=block[c, i])
        u_phys = _inverse_half(grid, block[0, i], out=tables.field)
        lm[i] = _lm_norm(grid, u_phys, params.m, out=u_phys)

    l2, dt_l2, hsigma = (np.empty(n_snap) for _ in range(3))
    chunk = _chunk_rows(grid)
    squares = tuple(np.empty((chunk,) + grid.xi_mag.shape) for _ in range(2))
    for lo in range(0, n_snap, chunk):
        rows = slice(lo, lo + chunk)
        l2[rows] = _half_l2_rows(grid, block[0, rows], None, squares)
        dt_l2[rows] = _half_l2_rows(grid, block[1, rows], None, squares)
        hsigma[rows] = _half_l2_rows(grid, block[0, rows], tables.xi_sigma,
                                     squares)
    return Trajectory(times.copy(), l2, dt_l2, hsigma, lm, params, grid,
                      states=list(zip(block[0], block[1])))
