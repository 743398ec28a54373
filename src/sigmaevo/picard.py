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

The caps ``t_end <= MAX_HORIZON`` and ``dt <= MAX_DT`` were sized for the
former O(n_snap^2 N) sum; they are kept until benchmark numbers at
longer horizons justify moving them.
"""

from __future__ import annotations

import numpy as np

from .grid import RealField, _forward_half, _inverse_half
from .solver import (SolverConfig, StepTables, Trajectory, _nonlinearity_hat,
                     _record_norms)

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
    by the same one-step matrix ``M(dt)``.
    """
    if config.t_end > MAX_HORIZON:
        raise ValueError(
            f"t_end = {config.t_end} exceeds the fixed-point horizon {MAX_HORIZON}")
    if config.dt > MAX_DT:
        raise ValueError(
            f"snapshot spacing dt = {config.dt} too coarse; need <= {MAX_DT}")
    if traj_in.states is None:
        raise ValueError("input trajectory must store states")
    dts = np.diff(traj_in.times)
    if not np.allclose(dts, config.dt, rtol=1e-9, atol=1e-12):
        raise ValueError("input trajectory must be stored densely (every step)")
    # The horizon cap is on config.t_end; the map runs over traj_in.times.
    t_last = float(traj_in.times[-1])
    if abs(t_last - config.t_end) > 1e-9 * config.t_end:
        raise ValueError(
            f"input trajectory ends at t = {t_last:g}, not at the "
            f"configured horizon t_end = {config.t_end:g}")
    if traj_in.grid.spec != config.grid:
        raise ValueError(
            f"input trajectory grid {traj_in.grid.spec} differs from the "
            f"configured grid {config.grid}")
    if u1.grid.spec != config.grid:
        raise ValueError(
            f"data grid {u1.grid.spec} differs from the configured grid "
            f"{config.grid}")

    grid = traj_in.grid
    params = config.params
    tables = StepTables(grid, params, config.dt, config.dealias)
    u1_hat = _forward_half(grid, u1.values)
    half_dt = 0.5 * config.dt

    # free flow F and Duhamel sum S (module docstring)
    free_u, free_ut = np.zeros_like(u1_hat), u1_hat
    v_hat = np.zeros_like(u1_hat)
    w_hat = np.zeros_like(u1_hat)
    f_prev = None
    records = []
    states = []
    for i, (t, state) in enumerate(zip(traj_in.times, traj_in.states)):
        f_hat = _nonlinearity_hat(_inverse_half(grid, state[0]), tables, t, i)
        if i > 0:
            free_u, free_ut = tables.advance(free_u, free_ut)
            v_hat, w_hat = tables.advance(v_hat, w_hat + half_dt * f_prev)
            w_hat = w_hat + half_dt * f_hat
        f_prev = f_hat
        u_hat = free_u + v_hat
        ut_hat = free_ut + w_hat
        records.append(_record_norms(grid, tables.xi_sigma, u_hat, ut_hat,
                                     params.m))
        states.append((u_hat, ut_hat))

    return Trajectory.from_records(traj_in.times, records, params, grid,
                                   states=states)
