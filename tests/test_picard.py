from dataclasses import replace

import numpy as np
import pytest

from sigmaevo.grid import (GridSpec, _inverse_half, build_grid, full_from_half,
                           transform_forward)
from sigmaevo.params import ModelParams
from sigmaevo.picard import MAX_HORIZON, picard_apply
from sigmaevo.propagator import kernel_arrays, propagate_linear
from sigmaevo.solver import (SolverConfig, StepTables, _nonlinearity_hat,
                             integrate, make_data, xt_distance, xt_norm,
                             zero_trajectory)

from full_layout import full_forward, full_xi_mag

PARAMS = ModelParams(n=1, sigma=1.0, alpha=0.5, p=4.0, m=1.0)


def dense_config(eps, n=512, t_end=4.0, dt=0.04):
    return SolverConfig(params=PARAMS, grid=GridSpec(1, n, 100.0), dt=dt,
                        t_end=t_end, data_amplitude=eps, store_states=True,
                        snapshot_interval=dt)


def _assert_map_of_zero_is_linear_flow(cfg, tol):
    traj0 = zero_trajectory(cfg)
    u1 = make_data(cfg, traj0.grid)
    out = picard_apply(traj0, u1, cfg)
    u1_hat = transform_forward(u1)
    for i, t in enumerate(out.times):
        u, ut = propagate_linear(u1_hat, PARAMS.sigma, float(t))
        got_u, got_ut = out.states[i]
        scale = max(np.max(np.abs(ut.coeffs)), 1e-300)
        assert np.max(np.abs(got_u - u.coeffs)) <= tol * scale
        assert np.max(np.abs(got_ut - ut.coeffs)) <= tol * scale


def test_map_of_zero_is_linear_flow():
    _assert_map_of_zero_is_linear_flow(dense_config(0.01), 1e-12)


def test_free_flow_drift_at_horizon_cap():
    # The free flow rides the one-step matrix over 1001 snapshots; its
    # rounding drift from the closed form stays small.
    cfg = dense_config(0.01, t_end=MAX_HORIZON, dt=0.01)
    _assert_map_of_zero_is_linear_flow(cfg, 1e-11)


def test_fixed_point_self_consistency():
    cfg = dense_config(0.01)
    traj = integrate(cfg)
    grid = traj.grid
    out = picard_apply(traj, make_data(cfg, grid), cfg)
    dist = xt_distance(out, traj)
    assert dist <= 0.05 * xt_norm(traj).value


def test_iterates_contract_from_zero():
    cfg = dense_config(0.001)
    grid = build_grid(cfg.grid)
    u1 = make_data(cfg, grid)
    iters = [zero_trajectory(cfg)]
    for _ in range(5):
        iters.append(picard_apply(iters[-1], u1, cfg))
    d = [xt_distance(iters[i + 1], iters[i]) for i in range(5)]
    for k in range(1, 5):
        assert d[k] <= 0.5 * d[k - 1]


def test_contraction_ratio_grows_with_amplitude():
    ratios = []
    for eps in (0.001, 0.01, 0.1):
        cfg = dense_config(eps, n=256, t_end=2.0)
        grid = build_grid(cfg.grid)
        u1 = make_data(cfg, grid)
        u0 = zero_trajectory(cfg)
        u1_traj = picard_apply(u0, u1, cfg)
        u2_traj = picard_apply(u1_traj, u1, cfg)
        u3_traj = picard_apply(u2_traj, u1, cfg)
        d1 = xt_distance(u1_traj, u0)
        d2 = xt_distance(u2_traj, u1_traj)
        d3 = xt_distance(u3_traj, u2_traj)
        ratios.append(max(d2 / d1, d3 / d2))
    assert ratios[0] < ratios[1] < ratios[2]


def test_density_and_horizon_preconditions():
    coarse = SolverConfig(params=PARAMS, grid=GridSpec(1, 256, 100.0), dt=0.1,
                          t_end=4.0, data_amplitude=0.01, store_states=True,
                          snapshot_interval=0.1)
    traj = integrate(coarse)
    u1 = make_data(coarse, traj.grid)
    with pytest.raises(ValueError, match="coarse"):
        picard_apply(traj, u1, coarse)

    long_cfg = SolverConfig(params=PARAMS, grid=GridSpec(1, 256, 300.0),
                            dt=0.04, t_end=20.0, data_amplitude=0.01,
                            store_states=True, snapshot_interval=0.04)
    traj2 = integrate(long_cfg)
    with pytest.raises(ValueError, match="horizon"):
        picard_apply(traj2, make_data(long_cfg, traj2.grid), long_cfg)

    stateless = dense_config(0.01)
    traj3 = integrate(SolverConfig(params=PARAMS, grid=stateless.grid,
                                   dt=stateless.dt, t_end=stateless.t_end,
                                   data_amplitude=0.01))
    with pytest.raises(ValueError, match="store"):
        picard_apply(traj3, make_data(stateless), stateless)


def test_trajectory_must_end_at_configured_horizon():
    long_cfg = SolverConfig(params=PARAMS, grid=GridSpec(1, 256, 300.0),
                            dt=0.04, t_end=20.0, data_amplitude=0.01,
                            store_states=True, snapshot_interval=0.04)
    traj = integrate(long_cfg)
    short_cfg = replace(long_cfg, t_end=4.0)
    with pytest.raises(ValueError, match="ends at t = 20"):
        picard_apply(traj, make_data(short_cfg, traj.grid), short_cfg)


def test_grids_must_match():
    cfg = dense_config(0.01, n=256)
    wide = replace(cfg, grid=GridSpec(1, 256, 300.0))
    traj_wide = zero_trajectory(wide)
    u1 = make_data(cfg)
    with pytest.raises(ValueError, match="grid"):
        picard_apply(traj_wide, u1, wide)
    with pytest.raises(ValueError, match="grid"):
        picard_apply(traj_wide, u1, cfg)


def _double_sum_states(traj_in, u1, config):
    """Reference: the trapezoid Duhamel sum over all snapshot pairs, in
    the full spectral layout."""
    grid = traj_in.grid
    params = config.params
    dt = config.dt
    tables = StepTables(grid, params, dt, config.dealias)
    u1_hat = full_forward(grid, u1.values)
    f_hats = [full_from_half(grid, _nonlinearity_hat(
                  _inverse_half(grid, state[0]), tables, t, i))
              for i, (t, state) in enumerate(zip(traj_in.times, traj_in.states))]
    k = full_xi_mag(grid) ** (2.0 * params.sigma)
    n_snap = len(traj_in.times)
    K1_lag = np.empty((n_snap,) + grid.shape)
    dK1_lag = np.empty((n_snap,) + grid.shape)
    for lag in range(n_snap):
        _, K1_lag[lag], _, dK1_lag[lag] = kernel_arrays(k, lag * dt)
    states = []
    for i in range(n_snap):
        u_hat = K1_lag[i] * u1_hat
        ut_hat = dK1_lag[i] * u1_hat
        if i > 0:
            w = np.full(i + 1, dt)
            w[0] = w[-1] = 0.5 * dt
            for j in range(i + 1):
                u_hat = u_hat + (w[j] * K1_lag[i - j]) * f_hats[j]
                ut_hat = ut_hat + (w[j] * dK1_lag[i - j]) * f_hats[j]
        states.append((u_hat, ut_hat))
    return states


def test_recurrence_matches_double_sum():
    # L = 128 pi puts the modes j = +-64 at k = 1, inside the double-root band;
    # the half-spectrum table holds j = 64, its mirror -64 is implied
    cfg = SolverConfig(params=PARAMS, grid=GridSpec(1, 256, 128.0 * np.pi),
                       dt=0.04, t_end=2.0, data_amplitude=0.1,
                       store_states=True, snapshot_interval=0.04)
    grid = build_grid(cfg.grid)
    k = grid.xi_mag ** (2.0 * PARAMS.sigma)
    assert np.count_nonzero(np.abs(1.0 - k) <= 1e-4) == 1
    u1 = make_data(cfg, grid)
    traj = zero_trajectory(cfg)
    for _ in range(3):
        ref = _double_sum_states(traj, u1, cfg)
        traj = picard_apply(traj, u1, cfg)
        for c in (0, 1):
            want = np.array([s[c] for s in ref])
            got = np.array([full_from_half(grid, s[c]) for s in traj.states])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
