"""Command-line entry point.

Usage: ``sigmaevo <subcommand> --config <file> [--key=value ...]``

The config file is a flat ``key = value`` document (``#`` starts a
comment); command-line flags override file values, and every key has a
documented default.  Each run writes its outputs plus a ``manifest.json``
(config echo, config hash, library versions, wall time, peak resident
memory, minor page faults and the allocator thresholds set by ``main``,
output list, exit status, and the error of a failed run) into the output
directory.
Exit status: 0 success, 2 input refused before the run starts (a
``ValidationError``, or an output directory that cannot be created), 3
labeled blow-up termination, 1 any other failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .decay import (default_window, fit_decay, check_rate, run_linear,
                    suggest_box_length)
from .fieldio import (config_hash, fmt17, report_to_json, save_field,
                      write_norms_csv, write_sweep_csv)
from .grid import GridSpec, RealField, _inverse_half
from .params import ModelParams, ValidationError
from .solver import SolverConfig, integrate, make_data
from .theory import admissibility

__all__ = ["RunConfig", "ValidationError", "SWEEPABLE", "parse_config",
           "dispatch", "main"]

SUBCOMMANDS = ("linear", "semilinear", "admissible", "sweep", "oracle-test")

# Keys a sweep may vary; every point is resolved like a single run.
SWEEPABLE = ("alpha", "dt", "epsilon", "m", "mean_zero", "p", "profile",
             "seed", "sigma", "t_end")

ENV_OUTPUT_DIR = "SIGMAEVO_OUTPUT_DIR"

# glibc mallopt parameters (malloc.h) -> the value main sets: the ceiling
# of glibc's dynamic thresholds on 64-bit.
MALLOC_THRESHOLDS = {"M_MMAP_THRESHOLD": (-3, 32 << 20),
                     "M_TRIM_THRESHOLD": (-1, 64 << 20)}


def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite; got {text!r}")
    return value


def float_or_auto(text: str) -> float | str:
    return "auto" if text == "auto" else finite(text)


def boolean(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# key -> (parser, default, help).  "auto" defaults are resolved after parsing.
SCHEMA = {
    "subcommand": (str, None, "one of " + ", ".join(SUBCOMMANDS)),
    "n": (int, 1, "space dimension (1-3)"),
    "sigma": (finite, 1.0, "order of the fractional Laplacian (>= 1)"),
    "alpha": (finite, 0.5, "smoothing order of the nonlinearity, in (0, n)"),
    "p": (finite, 4.0, "nonlinearity power (> 1)"),
    "m": (finite, 1.0, "data integrability exponent, in [1, 2]"),
    "N": (int, 8192, "grid points per axis (power of two >= 8)"),
    "L": (float_or_auto, "auto",
          "box side length, or 'auto' for the horizon rule"),
    "dt": (finite, 0.1, "time step (<= 0.5; must divide t_end)"),
    "t_end": (finite, 200.0, "final time"),
    "dealias": (boolean, True, "apply the 2/3 mask inside the nonlinearity"),
    "epsilon": (finite, 0.01, "data amplitude"),
    "profile": (str, "gaussian",
                "data profile: gaussian | bump | noise_bandlimited | spectral_tail"),
    "mean_zero": (boolean, False, "use the mean-zero (dipole) data variant"),
    "seed": (int, 0, "RNG seed for noise data (>= 0)"),
    "n_samples": (int, 200, "sample count for linear runs"),
    "window_lo": (float_or_auto, "auto",
                  "fit window start, or 'auto' (= max(1, 0.1 t_end); "
                  "fits need t >= 1)"),
    "window_hi": (float_or_auto, "auto",
                  "fit window end, or 'auto' (= t_end)"),
    "snapshot_interval": (float_or_auto, "auto",
                          "norm recording interval (a whole number of "
                          "steps dt), or 'auto'"),
    "rate_tol": (finite, 0.05, "tolerance for rate verdicts"),
    "output_dir": (str, "runs", "directory receiving all outputs"),
    "emit": (str, "csv,json", "comma-set from {csv, json, fields}"),
    "sweep_kind": (str, "linear", "sweep run type: linear | semilinear"),
    "sweep_param": (str, "", "config key varied by the sweep: one of "
                    + ", ".join(SWEEPABLE)),
    "sweep_values": (str, "", "comma-separated values for sweep_param"),
}


@dataclass
class RunConfig:
    subcommand: str
    solver: SolverConfig
    n_samples: int
    window: tuple[float, float]
    rate_tol: float
    output_dir: Path
    emit: frozenset
    values: dict     # converted key -> value mapping, "auto" unresolved
    effective: dict  # canonical key -> value mapping, echoed in the manifest


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
    if not isinstance(value, str) or parser is str:
        return value
    try:
        return parser(value)
    except ValueError as exc:
        raise ValidationError(f"key '{key}': {exc}") from None


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
    # only linear and semilinear runs fit; a sweep checks each point's window
    fits = values["subcommand"] in ("linear", "semilinear")
    if fits and window[0] >= window[1]:
        raise ValidationError(
            f"keys 'window_lo' and 'window_hi': the fit window "
            f"[{window[0]:g}, {window[1]:g}] is empty; window_lo must be "
            "below window_hi (fits need t >= 1: the auto window_lo is "
            "max(1, 0.1 t_end))")

    output_dir = Path(os.environ.get(ENV_OUTPUT_DIR, values["output_dir"]))
    emit = frozenset(part.strip() for part in str(values["emit"]).split(",")
                     if part.strip())
    bad = emit - {"csv", "json", "fields"}
    if bad:
        raise ValidationError(f"unknown emit targets: {sorted(bad)}")

    rate_tol = values["rate_tol"]
    if rate_tol < 0:
        raise ValidationError(f"key 'rate_tol': must be >= 0; got {rate_tol}")
    if values["sweep_kind"] not in ("linear", "semilinear"):
        raise ValidationError(
            f"key 'sweep_kind': expected linear or semilinear, "
            f"got {values['sweep_kind']!r}")

    effective = dict(values)
    if values["subcommand"] != "sweep":  # a sweep point resolves its own
        effective["L"] = length
        effective["window_lo"], effective["window_hi"] = window
    effective["output_dir"] = str(output_dir)
    effective["emit"] = ",".join(sorted(emit))

    return RunConfig(subcommand=values["subcommand"], solver=solver,
                     n_samples=values["n_samples"], window=window,
                     rate_tol=rate_tol, output_dir=output_dir, emit=emit,
                     values=values, effective=effective)


def _verdict_payload(series, config: RunConfig) -> dict:
    payload = {"label": series.label, "truncated": series.blew_up}
    if series.blew_up:
        payload.update(blowup_time=series.blowup_time,
                       blowup_step=series.blowup_step,
                       blowup_reason=series.blowup_reason)
    payload.update(window=list(config.window), fits={}, verdicts={})
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


def _run(config: RunConfig):
    """The run of a ``linear`` or ``semilinear`` config."""
    if config.subcommand == "linear":
        return run_linear(config.solver, n_samples=config.n_samples)
    return integrate(config.solver)


def _sweep_rows(config: RunConfig) -> tuple[str, list[dict]]:
    """Resolve, run and judge each sweep point exactly like a single run.

    A point's failure (an invalid value, a horizon error) becomes its
    row's ``error``; the other rows go on.
    """
    key = config.values["sweep_param"]
    texts = [part.strip() for part in config.values["sweep_values"].split(",")
             if part.strip()]
    if not key or not texts:
        raise ValidationError("sweep needs sweep_param and sweep_values")
    if key not in SWEEPABLE:
        raise ValidationError(
            f"cannot sweep over key '{key}'; "
            f"supported: {', '.join(SWEEPABLE)}")
    base = {k: v for k, v in config.values.items() if k != "subcommand"}
    rows = []
    for value in sorted(_convert(key, text) for text in texts):
        row = {"value": value, "fits": {}, "verdicts": {}, "label": "",
               "error": ""}
        try:
            point = parse_config(None, {**base, key: value},
                                 subcommand=config.values["sweep_kind"])
            row["params"] = point.solver.params
            row["admissibility"] = admissibility(point.solver.params)
            row.update(_verdict_payload(_run(point), point))
        except Exception as exc:  # keep the sweep going, record the failure
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return key, rows


def _run_subcommand(config: RunConfig, outputs: list[Path],
                    shape: dict) -> int:
    if config.subcommand in ("linear", "semilinear"):
        series = _run(config)
        shape.update(records=len(series.times))
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
        key, rows = _sweep_rows(config)
        path = config.output_dir / "sweep.csv"
        write_sweep_csv(path, key, rows)
        outputs.append(path)
        return 0

    if config.subcommand == "oracle-test":
        from . import checks  # scipy.integrate: off every other path
        suites = {"kernel": checks.kernel_oracle_suite(),
                  "riesz": checks.riesz_oracle_suite(),
                  "picard": checks.picard_cross_suite()}
        payload = {**suites, "passed": all(suite["passed"]
                                           for suite in suites.values())}
        path = config.output_dir / "oracle_test.json"
        path.write_text(json.dumps(payload, indent=2, default=repr) + "\n")
        outputs.append(path)
        return 0 if payload["passed"] else 1

    raise ValidationError(f"unknown subcommand '{config.subcommand}'")


def dispatch(config: RunConfig, malloc_thresholds: dict | None = None
             ) -> int:
    """Run one subcommand, writing artifacts and a manifest under output_dir.

    The manifest is written on every exit but one; a failed run adds
    ``error`` (exception class and message) to it.  An output_dir that
    cannot be created is refused with status 2 and no manifest.
    ``peak_rss_mib`` is the process's peak resident memory so far
    (``ru_maxrss``, which Linux reports in KiB) and ``minor_faults`` the
    minor page faults taken during this call.  ``malloc_thresholds``
    echoes the allocator thresholds the caller set for this process
    (``main`` passes what it set), null where none were set.  A
    ``linear`` or ``semilinear`` run that returns adds its shape:
    ``records`` (the rows of ``norms.csv``).
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # bad input, and nowhere to write a manifest
        print(f"error: key 'output_dir': cannot create "
              f"'{config.output_dir}': {exc.strerror or exc}", file=sys.stderr)
        return 2
    outputs: list[Path] = []
    shape: dict = {}
    error = None
    try:
        status = _run_subcommand(config, outputs, shape)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status, error = 2, exc
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        status, error = 1, exc

    end = resource.getrusage(resource.RUSAGE_SELF)
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
        "peak_rss_mib": end.ru_maxrss / 1024.0,
        "minor_faults": end.ru_minflt - usage.ru_minflt,
        "malloc_thresholds": malloc_thresholds,
        **shape,
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


def _glue_dash_values(argv: list[str]) -> list[str]:
    """Join ``--key -1,3`` into ``--key=-1,3``.

    argparse takes a word that starts with ``-`` for an option unless it
    reads as a plain negative number, so a value such as ``-1,3`` (a
    sweep list) or ``-1e3`` reaches it only glued to its flag.
    """
    takes_value = {"--config"} | {f"--{key}" for key in SCHEMA}
    flags = takes_value | {"-h", "--help"}
    words: list[str] = []
    for word in argv:
        if (words and words[-1] in takes_value and word.startswith("-")
                and word not in flags):
            words[-1] = f"{words[-1]}={word}"
        else:
            words.append(word)
    return words


def _keep_freed_memory() -> dict | None:
    """Raise glibc's mmap and trim thresholds to ``MALLOC_THRESHOLDS``.

    numpy's pocketfft allocates fresh scratch on every transform.  With
    glibc's default thresholds the pages of a large one go back to the
    system when it is freed and fault in again on the next call: about
    45,000 minor faults in a 200-sample run at 2^16 points.  Above the
    thresholds they stay in the heap for the next call.  Setting either
    threshold stops glibc adjusting both, so both are set.  Returns the
    values set, or None where the C library has no ``mallopt`` or
    refuses a value.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    done = [mallopt(param, value) == 1
            for param, value in MALLOC_THRESHOLDS.values()]
    if not all(done):
        return None
    return {name: value for name, (_, value) in MALLOC_THRESHOLDS.items()}


def main(argv=None) -> int:
    # main owns the process; importing the library leaves malloc alone
    thresholds = _keep_freed_memory()
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_glue_dash_values(argv))
    overrides = {key: value for key, value in vars(args).items()
                 if key not in ("subcommand", "config") and value is not None}
    try:
        config = parse_config(args.config, overrides, subcommand=args.subcommand)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return dispatch(config, malloc_thresholds=thresholds)


if __name__ == "__main__":
    sys.exit(main())
