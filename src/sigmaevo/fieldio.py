"""On-disk formats: binary fields, norm, sweep and admissibility-region
CSVs, the admissibility report as JSON, and the one config hash.

The binary field layout is a 24-byte header of little-endian 64-bit
values (dim and N as signed integers, L as a float) followed by the
row-major float64 samples.  All floats in text outputs are printed with
17 significant digits so runs are byte-reproducible.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .grid import GridSpec, RealField, build_grid
from .params import ModelParams
from .solver import Trajectory, xt_weighted_sums
from .theory import AdmissibilityReport, admissibility

__all__ = [
    "fmt17",
    "save_field",
    "load_field",
    "write_norms_csv",
    "write_sweep_csv",
    "write_region_sweep_csv",
    "report_to_json",
    "config_hash",
]

_HEADER = struct.Struct("<qqd")


def fmt17(x) -> str:
    """Render a float with 17 significant digits."""
    return format(float(x), ".17g")


def save_field(path: str | Path, f: RealField) -> None:
    """Write a field: header (dim, N, L) + row-major float64 samples."""
    spec = f.grid.spec
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(spec.dim, spec.points_per_axis, spec.box_length))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def load_field(path: str | Path) -> RealField:
    with open(path, "rb") as fh:
        dim, n, length = _HEADER.unpack(fh.read(_HEADER.size))
        data = np.frombuffer(fh.read(), dtype="<f8")
    spec = GridSpec(dim=dim, points_per_axis=n, box_length=length)
    if data.size != n ** dim:
        raise ValueError(
            f"field file holds {data.size} samples; header promises {n ** dim}")
    return RealField(build_grid(spec), data.reshape(spec.shape).astype(np.float64))


def write_norms_csv(path: str | Path, series: Trajectory) -> None:
    """Norm table: t, L2, dtL2, Hsigma_semi, Lm, weighted_sum."""
    weighted = xt_weighted_sums(series.times, series.l2, series.hsigma,
                                series.dt_l2, series.params)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "L2", "dtL2", "Hsigma_semi", "Lm", "weighted_sum"])
        for i in range(len(series.times)):
            writer.writerow([fmt17(series.times[i]), fmt17(series.l2[i]),
                             fmt17(series.dt_l2[i]), fmt17(series.hsigma[i]),
                             fmt17(series.lm[i]), fmt17(weighted[i])])


def write_sweep_csv(path: str | Path, rows) -> None:
    """One row per sweep point: overrides, slopes, verdicts, admissibility."""
    quantities = sorted({q for row in rows if row.fits for q in row.fits})
    keys = sorted({k for row in rows for k in row.overrides})
    header = [f"override_{k}" for k in keys]
    header += ["n", "sigma", "alpha", "p", "m"]
    for q in quantities:
        header += [f"{q}_slope", f"{q}_stderr", f"{q}_pass", f"{q}_sharp"]
    header += ["admissible", "warnings", "label", "error"]

    # Order-independent aggregation: sort rows by their override values.
    ordered = sorted(rows, key=lambda r: tuple(str(r.overrides.get(k, ""))
                                               for k in keys))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in ordered:
            rec = [_cell(row.overrides.get(k, "")) for k in keys]
            if row.params is not None:
                p = row.params
                rec += [str(p.n), fmt17(p.sigma), fmt17(p.alpha),
                        fmt17(p.p), fmt17(p.m)]
            else:
                rec += [""] * 5
            for q in quantities:
                fit = (row.fits or {}).get(q)
                verdict = (row.verdicts or {}).get(q)
                rec += [fmt17(fit.slope) if fit else "",
                        fmt17(fit.stderr) if fit else "",
                        _cell(verdict.passed) if verdict else "",
                        _cell(verdict.sharp) if verdict else ""]
            rep = row.admissibility
            rec += [_cell(rep.overall) if rep else "",
                    str(len(rep.warnings)) if rep else "",
                    row.label, row.error or ""]
            writer.writerow(rec)


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return fmt17(value)
    return str(value)


def write_region_sweep_csv(path: str | Path, p_values, n_values,
                           sigma: float, alpha: float, m: float) -> None:
    """Admissibility flags over a (p, n) grid at fixed (sigma, alpha, m)."""
    rows = []
    for n in n_values:
        for p in p_values:
            try:
                rep = admissibility(ModelParams(n=n, sigma=sigma, alpha=alpha,
                                                p=p, m=m))
            except ValueError as exc:
                rows.append({"n": n, "p": p, "error": str(exc)})
                continue
            rows.append({
                "n": n, "p": p, "p_crit": rep.p_crit,
                "p_lower": rep.p_lower, "p_lower_ok": rep.p_lower_ok,
                "p_upper": rep.p_upper, "p_upper_ok": rep.p_upper_ok,
                "dim_bound": rep.dim_bound, "dim_ok": rep.dim_ok,
                "p_integrability": rep.p_integrability,
                "p_integrability_ok": rep.p_integrability_ok,
                "gn_theta_s2": rep.gn_theta_s2,
                "gn_theta_s2_ok": rep.gn_theta_s2_ok,
                "gn_theta_sm": rep.gn_theta_sm,
                "gn_theta_sm_ok": rep.gn_theta_sm_ok,
                "riesz_q_s2": rep.riesz_q_s2, "riesz_q_s2_ok": rep.riesz_q_s2_ok,
                "riesz_q_sm": rep.riesz_q_sm, "riesz_q_sm_ok": rep.riesz_q_sm_ok,
                "overall": rep.overall, "error": "",
            })
    # an error row holds only n, p and error; take the header from a full row
    fields = max((list(row) for row in rows), key=len,
                 default=["n", "p", "error"])
    for row in rows:
        for key in fields:
            row.setdefault(key, "")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _cell(v) for k, v in row.items()})


def report_to_json(report: AdmissibilityReport, path: str | Path | None = None
                   ) -> str:
    """Serialize a report (bounds, flags, warnings) as JSON."""
    payload = asdict(report)
    payload["params"] = asdict(report.params)
    text = json.dumps(payload, indent=2, default=lambda x: repr(x))
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def config_hash(mapping: dict) -> str:
    """SHA-256 over the canonical sorted key=value rendering."""
    lines = []
    for key in sorted(mapping):
        value = mapping[key]
        if isinstance(value, bool):
            text = str(value).lower()
        elif isinstance(value, float):
            text = fmt17(value)
        elif isinstance(value, (frozenset, set, tuple, list)):
            text = ",".join(sorted(str(v) for v in value))
        else:
            text = str(value)
        lines.append(f"{key}={text}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
