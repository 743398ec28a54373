"""One fresh benchmark process: set up one workload, run it once, check it.

run.py starts these one at a time::

    python3 perfbench/child.py --workload NAME --seed N --spawned T \
        --workdir DIR [--trace] [--smoke] [--record]

``--spawned`` is the parent's ``time.perf_counter()`` just before it
started this process (the monotonic clock is shared by all processes),
so the set-up time covers interpreter start, ``import sigmaevo`` and input
construction.  Times are reported as measured; run.py scales them to
reference seconds.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import outcheck
import probes
import workloads
from spans import FFT_SPAN, Tracer, duration, layer_self_times, subtree

ROOT = Path(__file__).resolve().parents[1]


def _prepare_cli(se, wl, workdir: Path):
    cfg_path = workdir / "workload.cfg"
    cfg_path.write_text(workloads.config_text(wl.keys))
    out = workdir / "out"
    argv = [wl.subcommand, "--config", str(cfg_path), "--output_dir", str(out)]
    return cfg_path, out, lambda: se.cli.main(argv)


def _picard_config(se, keys: dict):
    params = se.ModelParams(n=keys["n"], sigma=keys["sigma"],
                            alpha=keys["alpha"], p=keys["p"], m=keys["m"])
    grid = se.GridSpec(dim=keys["n"], points_per_axis=keys["N"],
                       box_length=float(keys["L"]))
    return se.SolverConfig(params=params, grid=grid, dt=keys["dt"],
                           t_end=keys["t_end"],
                           data_amplitude=keys["epsilon"],
                           data_profile=keys["profile"], store_states=True,
                           snapshot_interval=keys["dt"])


def _cli_outputs(status: int, out: Path) -> dict:
    outputs = {"exit_status": status}
    norms = out / "norms.csv"
    if norms.is_file():
        with open(norms, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        outputs["norms"] = [[float(x) for x in row] for row in rows]
    verdicts = out / "verdicts.json"
    if verdicts.is_file():
        payload = json.loads(verdicts.read_text())
        outputs["label"] = payload["label"]
        outputs["verdicts"] = {q: v["passed"]
                               for q, v in payload["verdicts"].items()}
    return outputs


def _levels(wl, snapshots: int) -> int:
    """Main-loop levels: steps, linear samples or Picard snapshot updates."""
    if wl.subcommand == "semilinear":
        return round(wl.keys["t_end"] / wl.keys["dt"])
    if wl.subcommand == "linear":
        return wl.keys["n_samples"]
    return workloads.PICARD_ITERATIONS * snapshots


def _traced_metrics(se, wl, tracer, root: int, outputs: dict, inputs,
                    out: Path | None, picard_run) -> dict:
    """Per-layer metrics of one traced run (see README.md)."""
    spans = tracer.spans
    wall = duration(spans[root])
    inside = [spans[i] for i in subtree(spans, root)]
    ffts = [s for s in inside if s["name"] == FFT_SPAN]
    metrics, absent, probe_self = {}, {}, {}

    # Picard: the workload's own iteration on picard-1d, a probe elsewhere.
    if picard_run is None:
        try:
            cfg = probes.picard_probe_config(inputs.config)
            traj0 = se.solver.zero_trajectory(cfg)
            u1 = se.solver.make_data(cfg)
            first = len(spans)
            with tracer.span("probe.picard"):
                dist = probes.picard_iterate(se, cfg, u1, traj0,
                                             workloads.PICARD_ITERATIONS,
                                             tracer)
            picard_run = (spans[first:], dist, len(traj0.times),
                          cfg.grid.points_per_axis ** cfg.grid.dim)
        except Exception as exc:  # probe boundary
            for name in ("picard_apply_s", "snapshots", "lag_table_bytes",
                         "contraction_ratio"):
                absent["picard." + name] = f"{type(exc).__name__}: {exc}"
    snapshots = 0
    if picard_run is not None:
        picard_spans, dist, snapshots, points = picard_run
        applies = [duration(s) for s in picard_spans
                   if s["name"] == "picard.picard_apply"]
        metrics["picard.picard_apply_s"] = statistics.median(applies)
        metrics["picard.snapshots"] = snapshots
        metrics["picard.lag_table_bytes"] = 2 * snapshots * points * 8
        metrics["picard.contraction_ratio"] = dist[1] / dist[0]

    levels = _levels(wl, snapshots)
    loop_span = {"semilinear": "solver.integrate",
                 "linear": "decay.run_linear"}.get(wl.subcommand,
                                                   "picard.picard_apply")
    loop = [duration(s) for s in inside if s["name"] == loop_span]
    if loop:
        metrics["solver.step_mean_s"] = sum(loop) / levels
    else:
        absent["solver.step_mean_s"] = f"no {loop_span} span recorded"
    fft_s = sum(duration(s) for s in ffts)
    n_rows = len(outputs.get("norms", []))
    metrics.update({
        "cli.main_s": wall,
        "grid.fft_calls": len(ffts),
        "grid.fft_calls_per_level": len(ffts) / levels,
        "grid.fft_s": fft_s,
        "grid.fft_share": fft_s / wall,
        "grid.fft_bytes": sum(s["bytes"] for s in ffts),
        "grid.fft_flops": sum(s["flops"] for s in ffts),
        "solver.steps": levels if wl.subcommand == "semilinear" else 0,
        "solver.snapshots": n_rows if wl.subcommand == "semilinear" else 0,
        "decay.samples": n_rows if wl.subcommand == "linear" else 0,
        "fieldio.bytes_written": (sum(p.stat().st_size for p in out.iterdir())
                                  if out is not None else 0),
    })
    probes.run_probes(tracer, inputs, metrics, absent, probe_self)
    return {"metrics": metrics, "absent": absent, "probe_self_s": probe_self,
            "layers": layer_self_times(spans, root)}


def run(args) -> dict:
    wl = workloads.get(args.workload, args.seed, smoke=args.smoke)
    workdir = Path(args.workdir)
    tracer = Tracer() if args.trace else None

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    if tracer:
        tracer.install_fft_wrappers()  # before sigmaevo is imported
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    with span("cli.import"):
        import sigmaevo as se
        import sigmaevo.cli  # noqa: F401  (the CLI is not imported by the package)
    result = {"import_s": time.perf_counter() - start}

    with span("setup"):
        if wl.subcommand is None:
            config = _picard_config(se, wl.keys)
            cfg_path, out = workdir / "workload.cfg", None
            cfg_path.write_text(workloads.config_text(wl.keys))
            u1 = se.make_data(config)
            traj0 = se.zero_trajectory(config)
            call = lambda: probes.picard_iterate(  # noqa: E731
                se, config, u1, traj0, workloads.PICARD_ITERATIONS, tracer)
        else:
            cfg_path, out, call = _prepare_cli(se, wl, workdir)
    result["setup_raw_s"] = time.perf_counter() - args.spawned

    skipped: dict = {}
    boundaries = tracer.boundaries(se, skipped) if tracer else nullcontext()
    first = len(tracer.spans) if tracer else 0
    with span("workload"), boundaries:
        start = time.perf_counter()
        value = call()
        result["wall_raw_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if wl.subcommand is None:
        outputs = {"exit_status": 0, "distances": value}
    else:
        outputs = _cli_outputs(value, out)
    result["error"] = outcheck.check(wl.name, args.seed, outputs, args.smoke)
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": sys.modules["numpy"].__version__,
                          "scipy": sys.modules["scipy"].__version__}
    if args.record:
        result["outputs"] = outputs
    if tracer:
        if wl.subcommand is None:
            picard_run = (tracer.spans[first:], value, len(traj0.times),
                          config.grid.points_per_axis ** config.grid.dim)
            inputs = probes.Inputs(se, lambda: config, cfg_path, "semilinear",
                                   workdir)
        else:
            picard_run = None
            inputs = probes.Inputs(
                se, lambda: se.cli.parse_config(
                    cfg_path, None, subcommand=wl.subcommand).solver,
                cfg_path, wl.subcommand, workdir)
        result["trace"] = _traced_metrics(se, wl, tracer, first, outputs,
                                          inputs, out, picard_run)
        result["trace"]["skipped_boundaries"] = skipped
        tracer.write(workdir.parent / f"spans-{wl.name}-seed{args.seed}.json")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
