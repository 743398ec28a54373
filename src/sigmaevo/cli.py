"""Command-line entry point.

Usage: ``sigmaevo <subcommand> --config <file> [--key=value ...]``

The config file is a flat ``key = value`` document (``#`` starts a
comment); command-line flags override file values, and every key has a
documented default.  Each run writes its outputs plus a ``manifest.json``
(config echo, config hash, library versions, wall time, output list,
exit status, and the error of a failed run) into the output directory.
Exit status: 0 success, 2 validation error, 3 labeled blow-up
termination, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .decay import (default_window, fit_decay, check_rate, run_linear,
                    suggest_box_length, sweep)
from .checks import kernel_oracle_suite, riesz_oracle_suite
from .fieldio import (config_hash, fmt17, report_to_json, save_field,
                      write_norms_csv, write_sweep_csv)
from .grid import GridSpec, RealField, _inverse_half
from .params import ModelParams
from .solver import SolverConfig, integrate, make_data
from .theory import admissibility

__all__ = ["RunConfig", "ValidationError", "parse_config", "dispatch", "main"]

SUBCOMMANDS = ("linear", "semilinear", "admissible", "sweep", "oracle-test")

ENV_OUTPUT_DIR = "SIGMAEVO_OUTPUT_DIR"


def float_or_auto(text: str) -> float | str:
    return "auto" if text == "auto" else float(text)


# key -> (parser, default, help).  "auto" defaults are resolved after parsing.
SCHEMA = {
    "subcommand": (str, None, "one of " + ", ".join(SUBCOMMANDS)),
    "n": (int, 1, "space dimension (1-3)"),
    "sigma": (float, 1.0, "order of the fractional Laplacian (>= 1)"),
    "alpha": (float, 0.5, "smoothing order of the nonlinearity, in (0, n)"),
    "p": (float, 4.0, "nonlinearity power (> 1)"),
    "m": (float, 1.0, "data integrability exponent, in [1, 2]"),
    "N": (int, 8192, "grid points per axis (power of two >= 8)"),
    "L": (float_or_auto, "auto",
          "box side length, or 'auto' for the horizon rule"),
    "dt": (float, 0.1, "time step (<= 0.5; must divide t_end)"),
    "t_end": (float, 200.0, "final time"),
    "dealias": (bool, True, "apply the 2/3 mask inside the nonlinearity"),
    "epsilon": (float, 0.01, "data amplitude"),
    "profile": (str, "gaussian",
                "data profile: gaussian | bump | noise_bandlimited | spectral_tail"),
    "mean_zero": (bool, False, "use the mean-zero (dipole) data variant"),
    "seed": (int, 0, "RNG seed for noise data"),
    "n_samples": (int, 200, "sample count for linear runs"),
    "window_lo": (float_or_auto, "auto",
                  "fit window start, or 'auto' (= 0.1 t_end)"),
    "window_hi": (float_or_auto, "auto",
                  "fit window end, or 'auto' (= t_end)"),
    "snapshot_interval": (float_or_auto, "auto",
                          "norm recording interval (a whole number of "
                          "steps dt), or 'auto'"),
    "rate_tol": (float, 0.05, "tolerance for rate verdicts"),
    "output_dir": (str, "runs", "directory receiving all outputs"),
    "emit": (str, "csv,json", "comma-set from {csv, json, fields}"),
    "sweep_kind": (str, "linear", "sweep run type: linear | semilinear"),
    "sweep_param": (str, "", "config key varied by the sweep"),
    "sweep_values": (str, "", "comma-separated values for sweep_param"),
}


class ValidationError(ValueError):
    """Bad configuration; maps to exit status 2."""


@dataclass
class RunConfig:
    subcommand: str
    solver: SolverConfig
    n_samples: int
    window: tuple[float, float]
    rate_tol: float
    output_dir: Path
    emit: frozenset
    sweep_kind: str
    sweep_param: str
    sweep_values: tuple
    effective: dict  # canonical key -> value mapping, echoed in the manifest


def _parse_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _read_flat_file(path: str | Path) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"config file not found: {p}")
    raw = {}
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(
                f"{p}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            raise ValidationError(f"{p}:{lineno}: unknown key '{key}'")
        raw[key] = value
    return raw


def _convert(key: str, value) -> object:
    parser = SCHEMA[key][0]
    if parser is bool and not isinstance(value, bool):
        try:
            return _parse_bool(value)
        except ValueError as exc:
            raise ValidationError(f"key '{key}': {exc}") from None
    if isinstance(value, str) and parser is not str:
        try:
            return parser(value)
        except ValueError:
            raise ValidationError(
                f"key '{key}': cannot parse {value!r} as {parser.__name__}"
            ) from None
    return value


def parse_config(path: str | Path | None = None,
                 overrides: dict[str, str] | None = None,
                 subcommand: str | None = None) -> RunConfig:
    """Assemble a validated run configuration.

    Values come from (lowest to highest precedence) the documented
    defaults, the flat config file, and flag overrides.  Unknown keys
    are hard errors; range violations name the offending key.
    """
    raw: dict[str, object] = {k: default for k, (_, default, _) in SCHEMA.items()}
    if path is not None:
        raw.update(_read_flat_file(path))
    for key, value in (overrides or {}).items():
        if key not in SCHEMA:
            raise ValidationError(f"unknown key '{key}'")
        raw[key] = value

    values = {key: _convert(key, value) for key, value in raw.items()
              if value is not None}

    file_sub = values.get("subcommand")
    if subcommand is not None:
        if file_sub is not None and file_sub != subcommand:
            raise ValidationError(
                f"config file says subcommand={file_sub}, "
                f"command line says {subcommand}")
        values["subcommand"] = subcommand
    if "subcommand" not in values:
        raise ValidationError("no subcommand given")
    if values["subcommand"] not in SUBCOMMANDS:
        raise ValidationError(
            f"unknown subcommand '{values['subcommand']}'; "
            f"expected one of {', '.join(SUBCOMMANDS)}")

    # Resolve the auto values.
    length = values["L"]
    if length == "auto":
        length = suggest_box_length(values["t_end"], values["sigma"])
    lo, hi = default_window(values["t_end"])
    window = (lo if values["window_lo"] == "auto" else values["window_lo"],
              hi if values["window_hi"] == "auto" else values["window_hi"])
    snap = values["snapshot_interval"]
    snapshot_interval = None if snap == "auto" else snap

    try:
        model = ModelParams(n=values["n"], sigma=values["sigma"],
                            alpha=values["alpha"], p=values["p"], m=values["m"])
        grid = GridSpec(dim=values["n"], points_per_axis=values["N"],
                        box_length=length)
        solver = SolverConfig(params=model, grid=grid, dt=values["dt"],
                              t_end=values["t_end"],
                              data_amplitude=values["epsilon"],
                              data_profile=values["profile"],
                              dealias=values["dealias"],
                              mean_zero=values["mean_zero"],
                              seed=values["seed"],
                              snapshot_interval=snapshot_interval)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None

    output_dir = Path(os.environ.get(ENV_OUTPUT_DIR, values["output_dir"]))
    emit = frozenset(part.strip() for part in str(values["emit"]).split(",")
                     if part.strip())
    bad = emit - {"csv", "json", "fields"}
    if bad:
        raise ValidationError(f"unknown emit targets: {sorted(bad)}")

    sweep_values = tuple(part.strip()
                         for part in str(values["sweep_values"]).split(",")
                         if part.strip())
    if values["sweep_kind"] not in ("linear", "semilinear"):
        raise ValidationError(
            f"key 'sweep_kind': expected linear or semilinear, "
            f"got {values['sweep_kind']!r}")

    effective = dict(values)
    effective["L"] = length
    effective["window_lo"], effective["window_hi"] = window
    effective["output_dir"] = str(output_dir)
    effective["emit"] = ",".join(sorted(emit))

    return RunConfig(subcommand=values["subcommand"], solver=solver,
                     n_samples=values["n_samples"], window=window,
                     rate_tol=values["rate_tol"], output_dir=output_dir,
                     emit=emit, sweep_kind=values["sweep_kind"],
                     sweep_param=values["sweep_param"],
                     sweep_values=sweep_values, effective=effective)


def _verdict_payload(series, config: RunConfig) -> dict:
    payload = {"label": series.label, "truncated": series.blew_up,
               "window": list(config.window), "fits": {}, "verdicts": {}}
    if series.blew_up:
        return payload
    for quantity in ("u_L2", "dtu_L2", "Hsigma_semi"):
        try:
            fit = fit_decay(series, quantity, config.window)
        except ValueError as exc:
            payload["fits"][quantity] = {"error": str(exc)}
            continue
        verdict = check_rate(fit, config.solver.params, quantity,
                             config.rate_tol)
        payload["fits"][quantity] = asdict(fit)
        payload["verdicts"][quantity] = asdict(verdict)
    return payload


def _emit_series(series, config: RunConfig, outputs: list[Path]) -> None:
    out = config.output_dir
    if "csv" in config.emit:
        path = out / "norms.csv"
        write_norms_csv(path, series)
        outputs.append(path)
    if "json" in config.emit:
        path = out / "verdicts.json"
        path.write_text(json.dumps(_verdict_payload(series, config),
                                   indent=2, default=repr) + "\n")
        outputs.append(path)


def _emit_fields(series, config: RunConfig, outputs: list[Path]) -> None:
    """Write u1 and the run's final ``(u, du/dt)``."""
    grid = series.grid
    fields = [make_data(config.solver, grid)]
    fields += [RealField(grid, _inverse_half(grid, half))
               for half in series.final_state]
    for name, field in zip(("u1.bin", "u_final.bin", "ut_final.bin"), fields):
        path = config.output_dir / name
        save_field(path, field)
        outputs.append(path)


def _run_subcommand(config: RunConfig, outputs: list[Path]) -> int:
    if config.subcommand in ("linear", "semilinear"):
        series = (run_linear(config.solver, n_samples=config.n_samples)
                  if config.subcommand == "linear"
                  else integrate(config.solver))
        _emit_series(series, config, outputs)
        if "fields" in config.emit:
            _emit_fields(series, config, outputs)
        return 3 if series.blew_up else 0

    if config.subcommand == "admissible":
        path = config.output_dir / "admissibility.json"
        report_to_json(admissibility(config.solver.params), path)
        outputs.append(path)
        return 0

    if config.subcommand == "sweep":
        if not config.sweep_param or not config.sweep_values:
            raise ValidationError(
                "sweep needs sweep_param and sweep_values")
        key = config.sweep_param
        sweepable = {"sigma", "alpha", "p", "m", "epsilon", "dt", "t_end",
                     "profile", "seed", "mean_zero"}
        if key not in sweepable:
            raise ValidationError(
                f"cannot sweep over key '{key}'; "
                f"supported: {', '.join(sorted(sweepable))}")
        points = []
        for text in config.sweep_values:
            value = _convert(key, text)
            name = {"epsilon": "data_amplitude", "profile": "data_profile"}
            points.append({name.get(key, key): value})
        rows = sweep(points, config.solver, kind=config.sweep_kind,
                     window=config.window, tol=config.rate_tol)
        path = config.output_dir / "sweep.csv"
        write_sweep_csv(path, rows)
        outputs.append(path)
        return 0

    if config.subcommand == "oracle-test":
        kernel = kernel_oracle_suite()
        riesz = riesz_oracle_suite()
        payload = {"kernel": kernel, "riesz": riesz,
                   "passed": kernel["passed"] and riesz["passed"]}
        path = config.output_dir / "oracle_test.json"
        path.write_text(json.dumps(payload, indent=2, default=repr) + "\n")
        outputs.append(path)
        return 0 if payload["passed"] else 1

    raise ValidationError(f"unknown subcommand '{config.subcommand}'")


def dispatch(config: RunConfig) -> int:
    """Run one subcommand, writing artifacts and a manifest under output_dir.

    The manifest is written on every exit; a failed run adds ``error``
    (exception class and message) to it.
    """
    start = time.perf_counter()
    config.output_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[Path] = []
    error = None
    try:
        status = _run_subcommand(config, outputs)
    except ValueError as exc:  # ValidationError included
        print(f"error: {exc}", file=sys.stderr)
        status, error = 2, exc
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        status, error = 1, exc

    manifest = {
        "subcommand": config.subcommand,
        "config": {k: (fmt17(v) if isinstance(v, float) else v)
                   for k, v in sorted(config.effective.items())},
        "config_hash": config_hash({k: v for k, v in config.effective.items()
                                    if k != "output_dir"}),
        "versions": {"sigmaevo": __version__,
                     "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
        "wall_time_s": time.perf_counter() - start,
        "outputs": [p.name for p in outputs],
        "exit_status": status,
    }
    if error is not None:
        manifest["error"] = {"class": type(error).__name__,
                             "message": str(error)}
    (config.output_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n")
    return status


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmaevo",
        description="Spectral simulator and decay-rate laboratory for "
                    "doubly damped sigma-evolution equations.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value file")
        for key, (_, default, help_text) in SCHEMA.items():
            if key == "subcommand":
                continue
            p.add_argument(f"--{key}", default=None, metavar="V",
                           help=f"{help_text} (default: {default})")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items()
                 if key not in ("subcommand", "config") and value is not None}
    try:
        config = parse_config(args.config, overrides, subcommand=args.subcommand)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return dispatch(config)


if __name__ == "__main__":
    sys.exit(main())
