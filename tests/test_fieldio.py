import csv
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmaevo.decay import run_linear
from sigmaevo.cli import dispatch, main, parse_config
from sigmaevo.fieldio import (config_hash, fmt17, load_field, save_field,
                              write_norms_csv, write_sweep_csv)
from sigmaevo.grid import GridSpec, RealField, build_grid
from sigmaevo.params import ModelParams
from sigmaevo.solver import SolverConfig
from sigmaevo.theory import admissibility

PARAMS = ModelParams(n=1, sigma=1.0, alpha=0.5, p=4.0, m=1.0)


def test_field_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    grid = build_grid(GridSpec(2, 16, 3.5))
    f = RealField(grid, rng.standard_normal(grid.shape))
    path = tmp_path / "field.bin"
    save_field(path, f)
    back = load_field(path)
    assert back.grid.spec == grid.spec
    assert np.array_equal(back.values, f.values)
    # header: two int64 plus one float64, little endian
    raw = path.read_bytes()
    assert len(raw) == 24 + f.values.size * 8
    assert int.from_bytes(raw[:8], "little") == 2
    assert int.from_bytes(raw[8:16], "little") == 16


def test_truncated_field_rejected(tmp_path):
    grid = build_grid(GridSpec(1, 8, 1.0))
    path = tmp_path / "field.bin"
    save_field(path, RealField(grid, np.zeros(8)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="samples"):
        load_field(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "field.bin"
    path.write_bytes(b"\x01\x00\x00")
    with pytest.raises(ValueError, match="header is truncated"):
        load_field(path)


def test_fmt17_precision():
    x = 1.0 / 3.0
    assert float(fmt17(x)) == x
    assert fmt17(0.25) == "0.25"


def linear_series():
    cfg = SolverConfig(params=PARAMS, grid=GridSpec(1, 256, 150.0), dt=0.1,
                       t_end=50.0, data_amplitude=1.0)
    return run_linear(cfg, n_samples=40)


def test_norms_csv_schema_and_determinism(tmp_path):
    series = linear_series()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_norms_csv(p1, series)
    write_norms_csv(p2, linear_series())
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "t,L2,dtL2,Hsigma_semi,Lm,weighted_sum"
    first = p1.read_text().splitlines()[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0  # starts from rest


def test_trajectory_exports_to_norms_csv(tmp_path):
    from sigmaevo.solver import integrate
    cfg = SolverConfig(params=PARAMS, grid=GridSpec(1, 256, 100.0), dt=0.1,
                       t_end=5.0, data_amplitude=0.01)
    traj = integrate(cfg)
    path = tmp_path / "traj.csv"
    write_norms_csv(path, traj)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,L2,dtL2,Hsigma_semi,Lm,weighted_sum"
    assert len(lines) == len(traj.times) + 1


def test_sweep_csv_rows_sorted(tmp_path):
    over = {"N": "256", "L": "150", "t_end": "50", "epsilon": "1.0",
            "window_lo": "5", "window_hi": "50", "sweep_param": "alpha",
            "sweep_values": "0.75,0.25", "output_dir": str(tmp_path)}
    assert dispatch(parse_config(None, over, subcommand="sweep")) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("override_alpha")
    assert [line.split(",")[0] for line in lines[1:]] == ["0.25", "0.75"]


def test_sweep_csv_blanks_only_a_failed_fit(tmp_path):
    fit = {"slope": -0.25, "stderr": 1e-3}
    verdict = {"passed": True, "sharp": False}
    row = {"value": True, "params": PARAMS,
           "admissibility": admissibility(PARAMS), "label": "decayed",
           "fits": {"u_L2": fit, "dtu_L2": {"error": "too few samples"}},
           "verdicts": {"u_L2": verdict}, "error": ""}
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, "mean_zero", [row])
    with open(path, newline="") as fh:
        (rec,) = csv.DictReader(fh)
    assert rec["override_mean_zero"] == "true"
    assert (rec["u_L2_slope"], rec["u_L2_stderr"]) == ("-0.25", "0.001")
    assert (rec["u_L2_pass"], rec["u_L2_sharp"]) == ("true", "false")
    assert all(rec[f"dtu_L2_{col}"] == ""
               for col in ("slope", "stderr", "pass", "sharp"))
    assert rec["error"] == "dtu_L2: too few samples"
    assert rec["label"] == "decayed" and rec["admissible"] == "true"


def test_config_hash_sensitivity():
    def effective_hash(**changes):
        over = {"N": "256", "L": "150", "dt": "0.1", "t_end": "50",
                "epsilon": "1.0", **changes}
        return config_hash(parse_config(None, over, "linear").effective)

    base = effective_hash()
    assert base == effective_hash()
    assert effective_hash(dt="0.2") != base
    assert effective_hash(p="4.5") != base


def _canonical_text(mapping: dict) -> str:
    # the rendering config_hash promises, built independently of fmt17
    def render(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format(value, ".17g")
        if isinstance(value, (frozenset, set, tuple, list)):
            return ",".join(sorted(map(str, value)))
        return str(value)

    return "\n".join(f"{key}={render(mapping[key])}"
                     for key in sorted(mapping))


SCALARS = st.one_of(st.booleans(), st.floats(), st.integers(), st.text())
COLLECTIONS = st.one_of(st.frozensets(SCALARS), st.sets(SCALARS),
                        st.tuples(SCALARS, SCALARS), st.lists(SCALARS))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(), st.one_of(SCALARS, COLLECTIONS)))
def test_config_hash_is_sha256_of_the_canonical_text(mapping):
    want = hashlib.sha256(_canonical_text(mapping).encode()).hexdigest()
    assert config_hash(mapping) == want


def test_manifest_config_hash_is_pinned(tmp_path):
    # the criterion-5 dense config's manifest hash as hashlib wrote it;
    # the built-in SHA-256 must keep the bits
    assert main(["admissible", "--N", "16384", "--L", "2000", "--dt", "0.25",
                 "--t_end", "200", "--snapshot_interval", "0.25",
                 "--output_dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config_hash"] == (
        "ac9d763edc04076b4d619876787e2e3d9c71269a0b7981530d4c60cb5e286bec")
