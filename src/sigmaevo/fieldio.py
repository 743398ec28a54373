"""On-disk formats: binary fields, the norm and sweep CSVs, the
admissibility report as JSON, and the one config hash.

The binary field layout is a 24-byte header of little-endian 64-bit
values (dim and N as signed integers, L as a float) followed by the
row-major float64 samples.  All floats in text outputs are printed with
17 significant digits so runs are byte-reproducible.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .grid import GridSpec, RealField, build_grid
from .solver import Trajectory, xt_weighted_sums
from .theory import AdmissibilityReport

# not hashlib, which loads OpenSSL's libcrypto for one digest per run
try:  # 3.12+
    from _sha2 import sha256 as _sha256
except ImportError:
    try:  # 3.10-3.11
        from _sha256 import sha256 as _sha256
    except ImportError:  # an interpreter built without them
        from hashlib import sha256 as _sha256

__all__ = [
    "fmt17",
    "save_field",
    "load_field",
    "write_norms_csv",
    "write_sweep_csv",
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
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"field file header is truncated: {len(header)} "
                             f"of {_HEADER.size} bytes")
        dim, n, length = _HEADER.unpack(header)
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


def write_sweep_csv(path: str | Path, key: str, rows: list[dict]) -> None:
    """One row per sweep point: value, slopes, verdicts, admissibility.

    A row holds the swept ``value``, the point's ``params`` and
    ``admissibility`` report (absent for an invalid point), the ``fits``,
    ``verdicts`` and ``label`` of its verdict payload, and ``error``.  A
    failed fit blanks its own quantity's cells and adds
    ``<quantity>: <message>`` to ``error``.
    """
    quantities = sorted({q for row in rows for q in row["fits"]})
    header = [f"override_{key}", "n", "sigma", "alpha", "p", "m"]
    for q in quantities:
        header += [f"{q}_slope", f"{q}_stderr", f"{q}_pass", f"{q}_sharp"]
    header += ["admissible", "warnings", "label", "error"]

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            rec = [_cell(row["value"])]
            p = row.get("params")
            rec += ([str(p.n), fmt17(p.sigma), fmt17(p.alpha), fmt17(p.p),
                     fmt17(p.m)] if p else [""] * 5)
            for q in quantities:
                if q in row["verdicts"]:
                    fit, verdict = row["fits"][q], row["verdicts"][q]
                    rec += [fmt17(fit["slope"]), fmt17(fit["stderr"]),
                            _cell(verdict["passed"]), _cell(verdict["sharp"])]
                else:
                    rec += [""] * 4
            rep = row.get("admissibility")
            errors = [row["error"]] if row["error"] else []
            errors += [f"{q}: {fit['error']}"
                       for q, fit in row["fits"].items() if "error" in fit]
            rec += [_cell(rep.overall) if rep else "",
                    str(len(rep.warnings)) if rep else "",
                    row["label"], "; ".join(errors)]
            writer.writerow(rec)


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return fmt17(value)
    return str(value)


def report_to_json(report: AdmissibilityReport, path: str | Path | None = None
                   ) -> str:
    """Serialize a report (bounds, flags, warnings) as JSON."""
    text = json.dumps(asdict(report), indent=2, default=lambda x: repr(x))
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def config_hash(mapping: dict) -> str:
    """SHA-256 over the canonical sorted key=value rendering.

    The digest comes from CPython's built-in module: ``_sha2.sha256`` on
    3.12+, ``_sha256.sha256`` on 3.10-3.11, and ``hashlib.sha256`` only
    on an interpreter built without either.  The bits are the same on every
    route; only hashlib loads OpenSSL into the process.
    """
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
    return _sha256("\n".join(lines).encode()).hexdigest()
