import itertools
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from sigmaevo.checks import picard_gap
from sigmaevo.grid import (GridSpec, _chunk_rows, _forward_half,
                           _half_l2_rows, _inverse_half, build_grid,
                           full_from_half, transform_forward)
from sigmaevo.params import ModelParams
from sigmaevo.picard import MAX_HORIZON, picard_apply
from sigmaevo.propagator import kernel_arrays, propagate_linear
from sigmaevo.solver import (BlowUpSignal, SolverConfig, StepTables,
                             _StepWork, _nonlinearity_hat, _record_norms,
                             integrate, make_data, xt_distance, xt_norm,
                             xt_weighted_sums, zero_trajectory)

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
    assert dist <= 0.05 * xt_norm(traj)


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


@pytest.mark.parametrize("p, bounds", [(4.0, (1e-5, 2.5e-6)),
                                       (2.5, (6e-5, 1.5e-5))])
def test_integrate_nonlinear_part_matches_the_picard_fixed_point(p, bounds):
    # D = u - u_lin at T from the stepper and from 8 Picard iterates of
    # zero: two second-order discretisations of one Duhamel integral.
    # Measured gaps 5.72e-6, 1.43e-6 (p = 4) and 3.39e-5, 8.47e-6 (p = 2.5,
    # the np.power route) at dt = 0.04, 0.02: order 2.00.  A stepper
    # whose Duhamel increment is 10 % off reads 0.1.
    gaps = [picard_gap(p, dt) for dt in (0.04, 0.02)]
    assert gaps[0] <= bounds[0] and gaps[1] <= bounds[1], gaps
    assert np.log2(gaps[0] / gaps[1]) >= 1.8, gaps


@pytest.mark.parametrize("p, bounds", [(4.0, (2.5e-5, 6.3e-6)),
                                       (2.5, (1e-5, 2.5e-6))])
def test_integrate_nonlinear_part_matches_the_picard_fixed_point_in_2d(
        p, bounds):
    # The same gap in 2-D (N = 32, L = 50), where both sides take the n-d
    # transform path (rfftn, irfftn).  Measured gaps 1.446e-5, 3.615e-6
    # (p = 4) and 5.785e-6, 1.446e-6 (p = 2.5) at dt = 0.04, 0.02: order
    # 2.00.  Each bound is about 1.75x its gap, as in 1-D.
    gaps = [picard_gap(p, dt, GridSpec(2, 32, 50.0)) for dt in (0.04, 0.02)]
    assert gaps[0] <= bounds[0] and gaps[1] <= bounds[1], gaps
    assert np.log2(gaps[0] / gaps[1]) >= 1.8, gaps


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
    f_hats = [full_from_half(grid, tables.spread(_nonlinearity_hat(
                  _inverse_half(grid, state[0])[np.newaxis], tables, (t,),
                  i))[0])
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
    # L = 128 pi puts the modes j = +-64 exactly at the double root k = 1;
    # the half-spectrum table holds j = 64, its mirror -64 is implied
    cfg = SolverConfig(params=PARAMS, grid=GridSpec(1, 256, 128.0 * np.pi),
                       dt=0.04, t_end=2.0, data_amplitude=0.1,
                       store_states=True, snapshot_interval=0.04)
    grid = build_grid(cfg.grid)
    k = grid.xi_mag ** (2.0 * PARAMS.sigma)
    assert np.count_nonzero(k == 1.0) == 1
    u1 = make_data(cfg, grid)
    traj = zero_trajectory(cfg)
    for _ in range(3):
        ref = _double_sum_states(traj, u1, cfg)
        traj = picard_apply(traj, u1, cfg)
        for c in (0, 1):
            want = np.array([s[c] for s in ref])
            got = np.array([full_from_half(grid, s[c]) for s in traj.states])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# --- states in one block, norms over snapshot rows ------------------------

# Every case holds more snapshots than one chunk of rows, so the last
# chunk is partial.  p = 2.5 takes np.power, m = 1.5 a non-trivial L^m.
ROW_CASES = {
    "1d-p4": dense_config(0.1, t_end=2.0),
    "1d-p2.5-m1.5": replace(dense_config(0.1, t_end=2.0),
                            params=replace(PARAMS, p=2.5, m=1.5)),
    "2d-p3": SolverConfig(params=ModelParams(n=2, sigma=1.0, alpha=0.5, p=3.0,
                                             m=1.0),
                          grid=GridSpec(2, 32, 40.0), dt=0.05, t_end=1.0,
                          data_amplitude=0.5, store_states=True,
                          snapshot_interval=0.05),
}


def _iterates(cfg, count=3):
    traj = zero_trajectory(cfg)
    u1 = make_data(cfg, traj.grid)
    iters = [traj]
    for _ in range(count):
        iters.append(picard_apply(iters[-1], u1, cfg))
    return iters


def _xt_distance_loop(a, b):
    """Reference: one ``_half_l2_rows`` call per snapshot difference."""
    grid = a.grid
    xs = grid.xi_mag ** a.params.sigma
    l2, hs, dt = [], [], []
    for (ua, uta), (ub, utb) in zip(a.states, b.states):
        du = ua - ub
        l2.append(_half_l2_rows(grid, du))
        hs.append(_half_l2_rows(grid, xs * du))
        dt.append(_half_l2_rows(grid, uta - utb))
    return float(np.max(xt_weighted_sums(a.times, np.array(l2), np.array(hs),
                                         np.array(dt), a.params)))


@pytest.mark.parametrize("case", ROW_CASES)
def test_picard_norms_are_the_record_norms_of_its_states(case):
    cfg = ROW_CASES[case]
    iters = _iterates(cfg)
    tables = StepTables(iters[0].grid, cfg.params, cfg.dt, cfg.dealias)
    work = _StepWork(tables)
    for traj in iters[1:]:
        want = np.array([_record_norms(tables, work, u, ut, work.squares[0])
                         for u, ut in traj.states])
        got = np.stack([traj.l2, traj.dt_l2, traj.hsigma, traj.lm], axis=1)
        assert got.tobytes() == want.tobytes()


def _float_table_states(traj_in, u1, cfg):
    """Reference: the recurrence of the module docstring one snapshot at a
    time, with ``F`` and ``S`` advanced apart by ``StepTables.advance`` on
    its float tables."""
    grid = traj_in.grid
    tables = StepTables(grid, cfg.params, cfg.dt, cfg.dealias)
    zero = np.zeros(grid.xi_mag.shape, complex)
    flows = [(zero, _forward_half(grid, u1.values)), (zero, zero)]
    states = []
    for i, (t, (u, _)) in enumerate(zip(traj_in.times, traj_in.states)):
        g = tables.spread(_nonlinearity_hat(
            _inverse_half(grid, u)[np.newaxis], tables, (t,), i))[0] \
            * (0.5 * cfg.dt)
        if i > 0:
            flows = [tables.advance(*flow, out=(np.empty_like(zero),
                                                np.empty_like(zero)),
                                    scratch=np.empty_like(zero))
                     for flow in flows]
            flows[1] = (flows[1][0], flows[1][1] + g)
        (f_u, f_ut), (s_u, s_ut) = flows
        states.append((f_u + s_u, f_ut + s_ut))
        flows[1] = (s_u, s_ut + g)
    return np.array(states)


@pytest.mark.parametrize("case", ROW_CASES)
def test_picard_states_are_the_float_table_recurrence_bitwise(case):
    # picard_apply multiplies by complex copies of M(dt); the bits must be
    # those of the float tables, iterate after iterate.
    cfg = ROW_CASES[case]
    iters = _iterates(cfg)
    u1 = make_data(cfg, iters[0].grid)
    want = iters[0]
    for got in iters[1:]:
        states = _float_table_states(want, u1, cfg)
        assert got.states.tobytes() == states.tobytes()
        want = replace(got, states=states)


@pytest.mark.parametrize("case", ROW_CASES)
def test_xt_distance_is_the_per_snapshot_loop(case):
    iters = _iterates(ROW_CASES[case])
    for a, b in zip(iters, iters[1:]):
        for x, y in ((b, a), (a, b)):
            assert xt_distance(x, y) == _xt_distance_loop(x, y)


def test_picard_refuses_states_cut_after_construction():
    # Trajectory checks lengths when built and is frozen, so no states
    # cut afterwards can leave rows of picard_apply's block unwritten.
    cfg = dense_config(0.01, n=64, t_end=1.0)
    traj = zero_trajectory(cfg)
    with pytest.raises(FrozenInstanceError):
        traj.states = traj.states[:5]


def test_picard_states_share_no_memory():
    cfg = dense_config(0.1, n=64, t_end=1.0)
    traj0 = zero_trajectory(cfg)
    u1 = make_data(cfg, traj0.grid)
    first = picard_apply(traj0, u1, cfg)
    kept = [(u.copy(), ut.copy()) for u, ut in first.states]
    second = picard_apply(first, u1, cfg)

    def arrays(traj):
        return [a for state in traj.states for a in state]

    for traj in (first, second):
        for x, y in itertools.combinations(arrays(traj), 2):
            assert not np.shares_memory(x, y)
    for x in arrays(first):
        for y in arrays(traj0) + arrays(second):
            assert not np.shares_memory(x, y)
    for (u, ut), (ku, kut) in zip(first.states, kept):
        assert u.tobytes() == ku.tobytes() and ut.tobytes() == kut.tobytes()


def test_picard_and_xt_distance_memory_peaks():
    # The picard-1d size: 251 snapshots at N = 2048.  A call keeps its
    # block of states (7.9 MiB); beyond it, only buffers of one snapshot
    # or one chunk of rows may be live at once.  Measured: 0.44 MiB for
    # picard_apply (0.38 MiB before it held complex copies of the four
    # M(dt) tables, 66 KB), whose retained memory holds no per-snapshot
    # objects, and 0.29 MiB for xt_distance, which subtracts state rows
    # into one chunk buffer.
    cfg = SolverConfig(params=PARAMS, grid=GridSpec(1, 2048, 400.0),
                       dt=0.02, t_end=5.0, data_amplitude=0.1,
                       store_states=True, snapshot_interval=0.02)
    traj0 = zero_trajectory(cfg)
    u1 = make_data(cfg, traj0.grid)
    first = picard_apply(traj0, u1, cfg)
    tracemalloc.start()
    try:
        second = picard_apply(first, u1, cfg)
        retained, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        xt_distance(second, first)
        xt_peak = tracemalloc.get_traced_memory()[1] - retained
    finally:
        tracemalloc.stop()
    assert retained >= 2 * len(first.times) * 1025 * 16
    assert peak - retained <= 0.5 * 2 ** 20
    assert xt_peak <= 0.375 * 2 ** 20


@pytest.mark.parametrize("case", ROW_CASES)
def test_iterates_from_the_closed_form_zero_match_the_stepped_zero_run(case):
    cfg = ROW_CASES[case]
    stepped = integrate(replace(cfg, data_amplitude=0.0, store_states=True,
                                snapshot_interval=cfg.dt,
                                nonlinearity_enabled=False))
    u1 = make_data(cfg, stepped.grid)

    def distances(traj):
        iters = [traj]
        for _ in range(3):
            iters.append(picard_apply(iters[-1], u1, cfg))
        return [xt_distance(b, a) for a, b in zip(iters, iters[1:])]

    assert distances(zero_trajectory(cfg)) == distances(stepped)


def _first_signal(traj, u1, cfg):
    """Reference: the forcing of each snapshot in turn, as a map that
    takes one snapshot at a time meets them."""
    tables = StepTables(traj.grid, cfg.params, cfg.dt, cfg.dealias)
    for i, (t, (u, _)) in enumerate(zip(traj.times, traj.states)):
        try:
            _nonlinearity_hat(_inverse_half(traj.grid, u)[np.newaxis],
                              tables, (t,), i)
        except BlowUpSignal as sig:
            return sig.time, sig.step, sig.reason
    return None


@pytest.mark.parametrize("nan_at, big_at", [
    (5, 40), (40, 5),      # in different chunks, both orders
    (3, 9), (9, 3),        # in one chunk, both orders
    (40, 40),              # one snapshot: the non-finite state wins
])
def test_picard_blowup_reports_the_first_offending_snapshot(nan_at, big_at):
    cfg = dense_config(0.01)
    traj = zero_trajectory(cfg)
    grid = traj.grid
    assert _chunk_rows(grid) < 40 < len(traj.times)
    # samples of 1e100 overflow at the power p = 4
    big = _forward_half(grid, np.full(grid.shape, 1e100))
    nan = np.full(grid.xi_mag.shape, np.nan, complex)
    states = np.array(traj.states)
    states[big_at, 0] = big
    states[nan_at, 0] = nan if nan_at != big_at else big + nan
    traj = replace(traj, states=states)
    u1 = make_data(cfg, grid)
    want = _first_signal(traj, u1, cfg)
    first = min(nan_at, big_at)
    assert want == (traj.times[first], first,
                    "non-finite state in nonlinearity" if first == nan_at
                    else "overflow in pointwise power")
    with pytest.raises(BlowUpSignal) as caught:
        picard_apply(traj, u1, cfg)
    sig = caught.value
    assert (sig.time, sig.step, sig.reason) == want
