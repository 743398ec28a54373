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
and it only multiplies by the tables of ``M(dt)``, so the double root
``k = 1`` needs no case of its own.

The free flow rides the same one-step matrix: ``F_0 = (0, u1)`` and
``F_i = M(dt) F_{i-1}``, so no closed-form kernel is evaluated per
snapshot.  ``F`` and ``S`` are separate arrays, summed only for the
output; ``F`` is then bitwise the same in every iterate, and the small
differences between late iterates keep their resolution.

Neither the forcing ``f_i`` nor the norms of a snapshot depend on the
recurrence, so each chunk of ``grid._chunk_rows`` snapshots (about
128 KiB of coefficients) goes through three phases:

1. Forcing rows.  The chunk's input ``u`` rows are transformed into
   one real block of samples; the weights, ``|.|``, both finiteness
   checks, the power and ``(dt/2) f_i`` are each one pass over the
   block.  The first offending snapshot raises ``BlowUpSignal``, as it
   would alone.  The forcings are formed as band rows
   (``solver._band``) in the chunk's ``u_t`` rows of the output block
   and spread onto its ``u`` rows, zero outside the band, where they
   stay until phase 2 writes ``u_i`` over them.
2. Recurrence, per snapshot.  ``F`` and ``S`` are the two rows of one
   ``(2, 2) + half`` buffer per parity, so one ``M(dt)`` advance (a
   ``StepTables.flow`` call per row of ``M``) moves both; two adds
   write the snapshot's ``u_t`` and ``u``.  The advance multiplies by
   complex copies of the tables of ``M(dt)``, made once per call: the
   products have the bits of the float tables, which numpy would cast
   to complex in every product.
3. Norm rows.  One ``solver._record_norms`` call on the chunk's rows,
   the record of ``integrate``: the L2-type norms are row sums whose
   squares take the real block's memory, then the new ``u`` rows go
   back into the real block for one ``L^m`` pass.  Every norm has the
   bits of the per-snapshot record.

Each call writes its states into one ``(2, n_snap) + half`` block (the
``u`` rows, then the ``u_t`` rows), so that the forcing rows of a chunk
are contiguous, and returns it as the ``(n_snap, 2) + half`` view that
every ``Trajectory`` stores.  Besides the block, a call holds the
kernel tables with the complex copies, the two flow buffers and one
chunk's real block, and allocates nothing per snapshot.  Every
transform is one library call per field, as in ``integrate``.

The caps ``t_end <= MAX_HORIZON`` and ``dt <= MAX_DT`` were sized for the
former O(n_snap^2 N) sum; they are kept until benchmark numbers at
longer horizons justify moving them.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import RealField, _chunk_rows, _forward_half, _inverse_half
from .params import ValidationError
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
    by the same one-step matrix ``M(dt)``.  The returned states are a
    view of one block that no other call shares.
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
    half = grid.xi_mag.shape
    chunk = _chunk_rows(grid)
    n_band = tables.riesz_mult.size

    block = np.empty((2, n_snap) + half, complex)
    # flows[c] = (F, S), each a (u, u_t) pair; snapshot i writes
    # flows[i % 2] from the other one (module docstring)
    flows = np.zeros((2, 2, 2) + half, complex)
    _forward_half(grid, u1.values, out=flows[0, 0, 1])
    pairs = [(f[:, 0], f[:, 1]) for f in flows]
    parts = [(f[0, 0], f[0, 1], f[1, 0], f[1, 1]) for f in flows]
    scratch = np.empty((2,) + half, complex)
    matrix = tuple(t.astype(complex) for t in (
        tables.K1 + tables.decay, tables.K1, tables.dA, tables.dK1))
    # one chunk of real samples; the L2 squares take the same memory
    real = np.empty(2 * chunk * grid.xi_mag.size)
    samples = real[:chunk * math.prod(grid.shape)].reshape(
        (chunk,) + grid.shape)
    squares = tuple(real.reshape((2, chunk) + half))
    l2, dt_l2, hsigma, lm = (np.empty(n_snap) for _ in range(4))
    for lo in range(0, n_snap, chunk):
        rows = slice(lo, min(lo + chunk, n_snap))
        k = rows.stop - lo
        # 1. forcing rows (dt/2) f_i, held in the chunk's u rows of the
        #    block until the recurrence writes u over them; their band
        #    rows take the chunk's u_t rows until it writes u_t
        u_phys = _inverse_half(grid, traj_in.states[rows, 0],
                               out=samples[:k])
        band = block[1, rows].reshape(-1)[:k * n_band].reshape(k, n_band)
        g = tables.spread(_nonlinearity_hat(u_phys, tables, times[rows], lo,
                                            block[0, rows], band),
                          out=block[0, rows])
        g *= half_dt
        # 2. the recurrence; after its output, S_i takes the (dt/2) f_i
        #    that the next advance starts from
        for i, g_i in enumerate(g, lo):
            f_u, f_ut, s_u, s_ut = parts[i % 2]
            if i > 0:
                for row, out in enumerate(pairs[i % 2]):
                    tables.flow(row, *pairs[1 - i % 2], out, scratch, matrix)
                s_ut += g_i
            np.add(f_ut, s_ut, out=block[1, i])
            s_ut += g_i
            np.add(f_u, s_u, out=g_i)  # u_i over (dt/2) f_i
        # 3. norm rows
        l2[rows], dt_l2[rows], hsigma[rows], lm[rows] = _record_norms(
            tables, block[0, rows], block[1, rows], samples[:k], squares)
    return Trajectory(times.copy(), l2, dt_l2, hsigma, lm, params, grid,
                      states=block.swapaxes(0, 1))
