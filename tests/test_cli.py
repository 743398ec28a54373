import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmaevo.cli import (SCHEMA, ValidationError, dispatch, main,
                          parse_config)
from sigmaevo.data import PROFILES
from sigmaevo.fieldio import config_hash, fmt17

FAST_LINEAR = {"N": "256", "L": "150", "t_end": "50", "epsilon": "1.0",
               "n_samples": "80"}


def write_config(tmp_path, lines):
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_minimal_file_fills_defaults(tmp_path):
    path = write_config(tmp_path, ["subcommand = linear", "n = 1",
                                   "sigma = 1", "m = 1"])
    cfg = parse_config(path)
    assert cfg.subcommand == "linear"
    assert cfg.solver.grid.points_per_axis == 8192
    assert cfg.solver.t_end == 200.0
    # auto box length satisfies the horizon rule with equality
    assert cfg.solver.grid.box_length == pytest.approx(
        2 * np.pi * np.sqrt(2000.0))
    assert cfg.window == (20.0, 200.0)


def test_flag_overrides_file(tmp_path):
    path = write_config(tmp_path, ["subcommand = linear", "p = 3"])
    cfg = parse_config(path, {"p": "4"})
    assert cfg.solver.params.p == 4.0


def test_range_violation_names_key(tmp_path):
    path = write_config(tmp_path, ["subcommand = linear", "alpha = 2",
                                   "n = 1"])
    with pytest.raises(ValidationError, match=r"alpha.*\(0, 1\)"):
        parse_config(path)


def test_unknown_key_is_hard_error(tmp_path):
    path = write_config(tmp_path, ["subcommand = linear", "viscosity = 3"])
    with pytest.raises(ValidationError, match="viscosity"):
        parse_config(path)
    with pytest.raises(ValidationError, match="viscosity"):
        parse_config(None, {"viscosity": "3", "subcommand": "linear"})


def test_subcommand_mismatch_rejected(tmp_path):
    path = write_config(tmp_path, ["subcommand = linear"])
    with pytest.raises(ValidationError, match="subcommand"):
        parse_config(path, subcommand="sweep")


def test_comments_and_blank_lines(tmp_path):
    path = write_config(tmp_path, ["# a comment", "",
                                   "subcommand = linear  # trailing", ""])
    assert parse_config(path).subcommand == "linear"


def test_boolean_keys_parse(tmp_path):
    path = write_config(tmp_path, ["subcommand = linear", "dealias = false",
                                   "mean_zero = on"])
    cfg = parse_config(path)
    assert cfg.solver.dealias is False
    assert cfg.solver.mean_zero is True
    bad = write_config(tmp_path, ["subcommand = linear", "dealias = maybe"])
    with pytest.raises(ValidationError, match="dealias"):
        parse_config(bad)


def test_every_key_has_documented_default():
    for key, (_, default, help_text) in SCHEMA.items():
        assert help_text
        if key != "subcommand":
            assert default is not None


def test_admissible_reference_point(tmp_path):
    cfg = parse_config(None, {"output_dir": str(tmp_path / "out")},
                       subcommand="admissible")
    assert dispatch(cfg) == 0
    report = json.loads((tmp_path / "out" / "admissibility.json").read_text())
    assert report["overall"] is True
    assert report["p_integrability"] == 3.5


def test_admissible_reports_undefined_interpolation_exponent(tmp_path):
    # p = 1.5 with the defaults n = 1, alpha = 0.5, m = 1 puts the L^m
    # interpolation exponent's q at 1, outside the exponent's domain
    out = tmp_path / "out"
    assert main(["admissible", "--p", "1.5", "--output_dir", str(out)]) == 0
    report = json.loads((out / "admissibility.json").read_text())
    assert report["gn_theta_sm_ok"] is False
    assert any("theta_sm" in w and "q = 1" in w for w in report["warnings"])
    assert report["overall"] is False


def test_linear_runs_are_byte_identical(tmp_path):
    outs = []
    for name in ("one", "two"):
        over = dict(FAST_LINEAR)
        over["output_dir"] = str(tmp_path / name)
        cfg = parse_config(None, over, subcommand="linear")
        assert dispatch(cfg) == 0
        outs.append((tmp_path / name / "norms.csv").read_bytes())
    assert outs[0] == outs[1]


def test_manifest_written_with_hash(tmp_path):
    over = dict(FAST_LINEAR)
    over["output_dir"] = str(tmp_path / "out")
    cfg = parse_config(None, over, subcommand="linear")
    assert dispatch(cfg) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["exit_status"] == 0
    assert "norms.csv" in manifest["outputs"]
    assert len(manifest["config_hash"]) == 64

    over2 = dict(over)
    over2["epsilon"] = "2.0"
    cfg2 = parse_config(None, over2, subcommand="linear")
    dispatch(cfg2)
    manifest2 = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest2["config_hash"] != manifest["config_hash"]


def test_manifest_hash_ignores_output_dir(tmp_path, monkeypatch):
    def run_hash(out):
        cfg = parse_config(None, {**FAST_LINEAR, "output_dir": str(out)},
                           subcommand="linear")
        assert dispatch(cfg) == 0
        return json.loads((cfg.output_dir / "manifest.json").read_text())[
            "config_hash"]

    hashes = [run_hash(tmp_path / "a"), run_hash(tmp_path / "b")]
    monkeypatch.setenv("SIGMAEVO_OUTPUT_DIR", str(tmp_path / "env"))
    hashes.append(run_hash(tmp_path / "c"))
    assert (tmp_path / "env" / "manifest.json").exists()
    assert hashes[0] == hashes[1] == hashes[2]


def test_manifest_written_on_failure(tmp_path):
    # t_end = 100 lies past the box-validity horizon of L = 50: exit 2
    out = tmp_path / "out"
    assert main(["linear", "--L", "50", "--t_end", "100", "--N", "256",
                 "--output_dir", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 2
    assert manifest["outputs"] == []
    assert manifest["error"]["class"] == "ValueError"
    assert "horizon" in manifest["error"]["message"]
    assert len(manifest["config_hash"]) == 64
    # a successful run records no error
    cfg = parse_config(None, {**FAST_LINEAR, "output_dir": str(out)},
                       subcommand="linear")
    assert dispatch(cfg) == 0
    assert "error" not in json.loads((out / "manifest.json").read_text())


def test_fields_emitted_in_binary_format(tmp_path):
    from sigmaevo.fieldio import load_field
    over = dict(FAST_LINEAR)
    over["output_dir"] = str(tmp_path / "out")
    over["emit"] = "csv,fields"
    cfg = parse_config(None, over, subcommand="linear")
    assert dispatch(cfg) == 0
    u1 = load_field(tmp_path / "out" / "u1.bin")
    assert u1.grid.spec.points_per_axis == 256
    assert abs(u1.values.max() - 1.0) < 1e-12
    assert (tmp_path / "out" / "u_final.bin").exists()


def test_linear_final_fields_are_linear_flow_at_t_end(tmp_path):
    from sigmaevo.fieldio import load_field
    from sigmaevo.grid import transform_forward, transform_inverse
    from sigmaevo.propagator import propagate_linear
    from sigmaevo.solver import make_data
    over = dict(FAST_LINEAR, emit="fields", output_dir=str(tmp_path / "out"))
    cfg = parse_config(None, over, subcommand="linear")
    assert dispatch(cfg) == 0
    u1 = make_data(cfg.solver)
    expected = [transform_inverse(F).values for F in propagate_linear(
        transform_forward(u1), cfg.solver.params.sigma, cfg.solver.t_end)]
    for name, ref in zip(("u_final.bin", "ut_final.bin"), expected):
        got = load_field(tmp_path / "out" / name).values
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_semilinear_emits_final_state_fields(tmp_path):
    from sigmaevo.fieldio import load_field
    over = {"N": "256", "L": "150", "t_end": "10", "dt": "0.1",
            "epsilon": "0.01", "emit": "fields",
            "output_dir": str(tmp_path / "out")}
    cfg = parse_config(None, over, subcommand="semilinear")
    assert dispatch(cfg) == 0
    for name in ("u1.bin", "u_final.bin", "ut_final.bin"):
        assert (tmp_path / "out" / name).exists()
    u_final = load_field(tmp_path / "out" / "u_final.bin")
    assert 0 < np.max(np.abs(u_final.values)) < 0.01


def test_semilinear_blowup_exit_status(tmp_path):
    over = {"N": "256", "L": "100", "t_end": "20", "dt": "0.1",
            "epsilon": "10.0", "p": "2",
            "output_dir": str(tmp_path / "out")}
    cfg = parse_config(None, over, subcommand="semilinear")
    assert dispatch(cfg) == 3
    verdicts = json.loads((tmp_path / "out" / "verdicts.json").read_text())
    assert verdicts["truncated"] is True


def test_semilinear_admissible_point_succeeds(tmp_path):
    over = {"N": "512", "L": "150", "t_end": "50", "dt": "0.25",
            "epsilon": "0.01", "window_lo": "5", "window_hi": "50",
            "output_dir": str(tmp_path / "out")}
    cfg = parse_config(None, over, subcommand="semilinear")
    assert dispatch(cfg) == 0
    verdicts = json.loads((tmp_path / "out" / "verdicts.json").read_text())
    assert verdicts["verdicts"]["u_L2"]["passed"] is True


def test_sweep_subcommand(tmp_path):
    over = dict(FAST_LINEAR)
    over.update({"output_dir": str(tmp_path / "out"), "sweep_param": "alpha",
                 "sweep_values": "0.25,0.75", "window_lo": "5",
                 "window_hi": "50"})
    cfg = parse_config(None, over, subcommand="sweep")
    assert dispatch(cfg) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3


def test_sweep_requires_param(tmp_path):
    cfg = parse_config(None, {"output_dir": str(tmp_path / "out")},
                       subcommand="sweep")
    assert dispatch(cfg) == 2


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    target = tmp_path / "redirected"
    monkeypatch.setenv("SIGMAEVO_OUTPUT_DIR", str(target))
    cfg = parse_config(None, {}, subcommand="admissible")
    assert dispatch(cfg) == 0
    assert (target / "admissibility.json").exists()


def test_main_entrypoint(tmp_path):
    out = str(tmp_path / "out")
    args = ["linear", "--output_dir", out]
    for key, value in FAST_LINEAR.items():
        args += [f"--{key}", value]
    assert main(args) == 0
    assert (tmp_path / "out" / "manifest.json").exists()


def test_main_validation_exit(tmp_path):
    assert main(["linear", "--alpha", "2", "--n", "1",
                 "--output_dir", str(tmp_path)]) == 2
    # t_end = 1.0 is not a whole number of steps dt = 0.3
    assert main(["semilinear", "--n", "1", "--N", "64", "--t_end", "1.0",
                 "--dt", "0.3", "--output_dir", str(tmp_path)]) == 2
    # snapshot_interval = 0.15 is not a whole number of steps dt = 0.1
    assert main(["semilinear", "--n", "1", "--N", "64", "--t_end", "1.0",
                 "--dt", "0.1", "--snapshot_interval", "0.15",
                 "--output_dir", str(tmp_path)]) == 2
    for key in ("snapshot_interval", "window_lo", "window_hi"):
        assert main(["semilinear", "--n", "1", "--N", "64", "--t_end", "1.0",
                     f"--{key}", "abc", "--output_dir", str(tmp_path)]) == 2
    # a linear run needs at least one sample
    assert main(["linear", "--N", "64", "--t_end", "1.0", "--n_samples", "0",
                 "--output_dir", str(tmp_path)]) == 2


def test_nothing_written_outside_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "only_here"
    over = dict(FAST_LINEAR)
    over["output_dir"] = str(out)
    over["emit"] = "csv,json,fields"
    cfg = parse_config(None, over, subcommand="linear")
    assert dispatch(cfg) == 0
    entries = {p.name for p in tmp_path.iterdir()}
    assert entries == {"only_here"}


def _auto_or(floats):
    return st.one_of(st.just("auto"), floats.map(repr))


@st.composite
def flat_overrides(draw):
    n = draw(st.integers(1, 3))
    return {
        "n": str(n),
        "sigma": repr(draw(st.floats(1.0, 3.0))),
        "alpha": repr(n * draw(st.floats(0.01, 0.99))),
        "p": repr(draw(st.floats(1.01, 10.0))),
        "m": repr(draw(st.floats(1.0, 2.0))),
        "N": str(draw(st.sampled_from([8, 64, 1024]))),
        "L": draw(_auto_or(st.floats(1.0, 1e5))),
        "dt": repr(draw(st.floats(1e-3, 0.5))),
        "t_end": repr(draw(st.floats(0.5, 1e3))),
        "dealias": draw(st.sampled_from(["true", "off", "1"])),
        "epsilon": repr(draw(st.floats(0.0, 10.0))),
        "profile": draw(st.sampled_from(PROFILES)),
        "mean_zero": draw(st.sampled_from(["false", "on"])),
        "seed": str(draw(st.integers(0, 2 ** 31))),
        "window_lo": draw(_auto_or(st.floats(1.0, 1e3))),
        "window_hi": draw(_auto_or(st.floats(1.0, 1e3))),
        "snapshot_interval": draw(_auto_or(st.floats(1e-3, 10.0))),
        "rate_tol": repr(draw(st.floats(1e-3, 1.0))),
    }


def _manifest_hash(cfg):
    # as dispatch() stamps it: every effective key but output_dir
    return config_hash({k: v for k, v in cfg.effective.items()
                        if k != "output_dir"})


@settings(deadline=None, max_examples=40)
@given(flat_overrides())
def test_effective_config_round_trips_through_flat_file(over):
    # The manifest echoes the effective mapping; fed back as a config file
    # it must give the same mapping and the same hash.
    with tempfile.TemporaryDirectory() as tmp:
        cfg = parse_config(None, {**over, "output_dir": tmp}, "admissible")
        lines = []
        for key, value in cfg.effective.items():
            if isinstance(value, bool):
                value = str(value).lower()
            elif isinstance(value, float):
                value = fmt17(value)
            lines.append(f"{key} = {value}")
        path = Path(tmp) / "effective.cfg"
        path.write_text("\n".join(lines) + "\n")
        back = parse_config(path)
        assert back.effective == cfg.effective
        assert _manifest_hash(back) == _manifest_hash(cfg)
