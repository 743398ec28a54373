"""Per-layer probes: time a layer's public function on the workload's inputs.

Each probe calls one public entry point of sigmaevo up to ``PROBE_CALLS``
times (at least once, and no more once ``PROBE_BUDGET_S`` is spent) on the
workload's own grid, parameters and data, inside a span named
``probe.<metric>``, and reports the median seconds per call.  A probe
whose entry point is gone or no longer accepts these arguments is
recorded as absent with the reason; it never fails the workload.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import replace
from functools import cached_property

from spans import duration, self_times, subtree

PROBE_CALLS = 5
PROBE_BUDGET_S = 1.0
# run_linear probe: enough log-spaced samples that fit_decay finds >= 20
# inside the window [1, t_end] for every workload (t_end >= 2).
PROBE_SAMPLES = 60
# Picard probe on the workloads that do not iterate the map themselves:
# the picard-1d spacing over a horizon of ten steps.
PICARD_DT = 0.02
PICARD_PROBE_T_END = 0.2


class Inputs:
    """The workload's config, grid and data, built on first use."""

    def __init__(self, se, make_config, config_path, subcommand, workdir):
        self.se = se
        self._make_config = make_config  # -> sigmaevo.solver.SolverConfig
        self.config_path = config_path
        self.subcommand = subcommand     # for parse_config
        self.workdir = workdir

    @cached_property
    def config(self):
        return self._make_config()

    @property
    def params(self):
        return self.config.params

    @cached_property
    def grid(self):
        return self.se.grid.build_grid(self.config.grid)

    @cached_property
    def u1(self):
        return self.se.solver.make_data(self.config, self.grid)

    @cached_property
    def u1_hat(self):
        return self.se.grid.transform_forward(self.u1)

    @property
    def state(self):
        return (self.u1_hat, self.u1_hat)

    @cached_property
    def times(self):
        """Cycle of PROBE_CALLS times log-spaced in (1 + t) up to t_end, like
        run_linear's samples (kernel cost depends on t through underflow)."""
        top = math.log1p(self.config.t_end)
        return itertools.cycle(math.expm1(top * (i + 1) / PROBE_CALLS)
                               for i in range(PROBE_CALLS))

    @cached_property
    def k(self):
        return self.grid.xi_mag ** (2.0 * self.params.sigma)

    @cached_property
    def series(self):
        return self.se.decay.run_linear(self.config, n_samples=PROBE_SAMPLES)


def _probe_table(x: Inputs) -> dict:
    se = x.se
    return {
        "cli.parse_config_s": lambda: se.cli.parse_config(
            x.config_path, None, subcommand=x.subcommand),
        "grid.build_grid_s": lambda: se.grid.build_grid(x.config.grid),
        "grid.transform_forward_s": lambda: se.grid.transform_forward(x.u1),
        "grid.transform_inverse_s": lambda: se.grid.transform_inverse(
            x.u1_hat),
        "propagator.kernel_arrays_s": lambda: se.propagator.kernel_arrays(
            x.k, next(x.times)),
        "propagator.duhamel_weight_s": lambda: se.propagator.duhamel_weight(
            x.k, x.config.dt),
        "propagator.propagate_linear_s": lambda: se.propagator.propagate_linear(
            x.u1_hat, x.params.sigma, x.config.t_end),
        "operators.riesz_potential_s": lambda: se.operators.riesz_potential(
            x.u1, x.params.alpha),
        "operators.sobolev_seminorm_s": lambda: se.operators.sobolev_seminorm(
            x.u1, x.params.sigma),
        "operators.lebesgue_norm_s": lambda: se.operators.lebesgue_norm(
            x.u1, x.params.m),
        "data.make_data_s": lambda: se.solver.make_data(x.config, x.grid),
        "solver.step_tables_s": lambda: se.solver.StepTables(
            x.grid, x.params, x.config.dt, x.config.dealias),
        "solver.nonlinearity_s": lambda: se.solver.nonlinearity(
            x.u1, x.params, x.config.dealias),
        "solver.etd_step_s": lambda: se.solver.etd_step(
            x.state, x.config.dt, x.params, x.config.dealias),
        "solver.etd_step_linear_s": lambda: se.solver.etd_step(
            x.state, x.config.dt, x.params, x.config.dealias,
            nonlinear=False),
        "decay.run_linear_s": lambda: se.decay.run_linear(
            x.config, n_samples=PROBE_SAMPLES),
        "decay.fit_decay_s": lambda: se.decay.fit_decay(
            x.series, "u_L2", (1.0, x.config.t_end)),
        "fieldio.write_norms_csv_s": lambda: se.fieldio.write_norms_csv(
            x.workdir / "probe_norms.csv", x.series),
        "theory.admissibility_s": lambda: se.theory.admissibility(x.params),
    }


def time_calls(tracer, name: str, fn) -> list[dict]:
    """Call ``fn`` in spans named ``probe.<name>``; return the spans."""
    records = []
    while (len(records) < PROBE_CALLS
           and sum(duration(r) for r in records) < PROBE_BUDGET_S):
        with tracer.span("probe." + name) as record:
            fn()
        records.append(record)
    return records


def run_probes(tracer, inputs: Inputs, metrics: dict, absent: dict,
               probe_self: dict) -> None:
    """Fill ``metrics`` (median s/call), ``probe_self`` (median self time
    per call, FFT children excluded) and ``absent`` (metric -> reason)."""
    for name, fn in _probe_table(inputs).items():
        try:
            records = time_calls(tracer, name, fn)
        except Exception as exc:  # probe boundary: record, keep going
            absent[name] = f"{type(exc).__name__}: {exc}"
            continue
        metrics[name] = statistics.median(duration(r) for r in records)
        probe_self[name] = statistics.median(
            self_times(tracer.spans, subtree(tracer.spans, r["id"]))[0]
            for r in records)
    if "solver.etd_step_s" in metrics and "solver.step_tables_s" in metrics:
        # public etd_step rebuilds its tables on every call
        metrics["solver.etd_step_self_s"] = (metrics["solver.etd_step_s"]
                                             - metrics["solver.step_tables_s"])
    else:
        absent["solver.etd_step_self_s"] = "etd_step or step_tables absent"


def picard_iterate(se, config, u1, traj0, iterations: int, tracer=None):
    """Apply the solution map ``iterations`` times from ``traj0``.

    Returns the successive ``xt_distance`` values.  With a tracer, each
    application is a ``picard.picard_apply`` span.
    """
    trajectories = [traj0]
    for _ in range(iterations):
        apply = se.picard.picard_apply
        if tracer is not None:
            apply = tracer.wrap(apply, "picard.picard_apply")
        trajectories.append(apply(trajectories[-1], u1, config))
    return [se.solver.xt_distance(b, a)
            for a, b in zip(trajectories, trajectories[1:])]


def picard_probe_config(config):
    """Dense short-horizon variant of ``config`` that picard_apply accepts."""
    return replace(config, dt=PICARD_DT, t_end=PICARD_PROBE_T_END,
                   store_states=True, snapshot_interval=PICARD_DT)
