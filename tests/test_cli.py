import csv
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmaevo.cli import (MALLOC_THRESHOLDS, SCHEMA, SWEEPABLE,
                          ValidationError, _glue_dash_values, dispatch, main,
                          parse_config)
from sigmaevo.data import PROFILES
from sigmaevo.fieldio import config_hash, fmt17

FAST_LINEAR = {"N": "256", "L": "150", "t_end": "50", "epsilon": "1.0",
               "n_samples": "80"}


SRC = Path(__file__).resolve().parents[1] / "src"

# what main sets: glibc has mallopt, other C libraries may not
WANT_THRESHOLDS = ({name: value
                    for name, (_, value) in MALLOC_THRESHOLDS.items()}
                   if platform.libc_ver()[0] == "glibc" else None)


def subprocess_env(**extra):
    """This environment with sigmaevo's sources importable."""
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


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


def test_linear_norms_do_not_depend_on_blas_threads(tmp_path):
    # A BLAS dot product splits a vector of 16385 entries (the half
    # spectrum of 2^15 points) across threads and so reorders its sum;
    # norms.csv must not depend on the thread count.
    outs = []
    for threads in ("1", "2"):
        env = subprocess_env(OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "sigmaevo.cli", "linear",
                        "--N", "32768", "--L", "16000", "--t_end", "500",
                        "--n_samples", "20", "--output_dir", str(out)],
                       env=env, capture_output=True, timeout=300, check=True)
        outs.append((out / "norms.csv").read_bytes())
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


def test_manifest_reports_memory_and_keeps_the_artifacts(tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["semilinear", "--N", "64", "--L", "60", "--t_end", "2",
                     "--dt", "0.1", "--output_dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for key in ("peak_rss_mib", "minor_faults"):
            value = manifest[key]
            assert type(value) in (int, float) and value >= 0, key
        assert manifest["malloc_thresholds"] == WANT_THRESHOLDS
        outs.append([(out / f).read_bytes()
                     for f in ("norms.csv", "verdicts.json")])
    assert outs[0] == outs[1]
    assert not any(b"malloc" in text for text in outs[0])


def test_linear_run_keeps_transform_scratch_resident(tmp_path):
    # pocketfft allocates fresh scratch on every 2^16-point irfft; with
    # glibc's default thresholds it faults in again on every sample
    # (about 245 faults a sample), with main's about 19
    if WANT_THRESHOLDS is None:
        pytest.skip("main sets malloc thresholds on glibc only")
    n_samples = 100
    out = tmp_path / "out"
    subprocess.run([sys.executable, "-m", "sigmaevo.cli", "linear",
                    "--N", "65536", "--L", "32000", "--profile", "gaussian",
                    "--n_samples", str(n_samples), "--output_dir", str(out)],
                   env=subprocess_env(), capture_output=True, timeout=300,
                   check=True)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["malloc_thresholds"] == WANT_THRESHOLDS
    assert manifest["minor_faults"] / n_samples < 60


def test_importing_the_library_leaves_malloc_alone(tmp_path):
    # only main sets the thresholds; a library caller keeps its allocator
    script = f"""
import ctypes, json
calls = []

class Spy(ctypes.CDLL):
    def __getattr__(self, name):
        calls.append(name)
        return super().__getattr__(name)

ctypes.CDLL = Spy
import sigmaevo, sigmaevo.cli
imported = list(calls)
sigmaevo.cli.main(["admissible", "--output_dir", {str(tmp_path)!r}])
print(json.dumps([imported, calls]))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=subprocess_env(),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    imported, called = json.loads(proc.stdout.splitlines()[-1])
    assert "mallopt" not in imported
    assert called.count("mallopt") == 1
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["malloc_thresholds"] == WANT_THRESHOLDS


def test_manifest_reports_the_run_shape(tmp_path):
    # records: the rows of norms.csv
    out = tmp_path / "semilinear"
    assert main(["semilinear", "--N", "64", "--L", "60", "--t_end", "2",
                 "--dt", "0.1", "--snapshot_interval", "0.2",
                 "--output_dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    rows = (out / "norms.csv").read_text().splitlines()[1:]
    assert manifest["records"] == len(rows) == 11
    out = tmp_path / "linear"
    argv = [f"--{k}={v}" for k, v in FAST_LINEAR.items()]
    assert main(["linear", *argv, "--output_dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    rows = (out / "norms.csv").read_text().splitlines()[1:]
    assert manifest["records"] == len(rows) == 80


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
    assert manifest["error"]["class"] == "ValidationError"
    assert "horizon" in manifest["error"]["message"]
    assert len(manifest["config_hash"]) == 64
    # a successful run records no error
    cfg = parse_config(None, {**FAST_LINEAR, "output_dir": str(out)},
                       subcommand="linear")
    assert dispatch(cfg) == 0
    assert "error" not in json.loads((out / "manifest.json").read_text())


def test_uncreatable_output_dir_is_refused(tmp_path, capsys, monkeypatch):
    # a directory under a regular file: one error line, status 2, and no
    # run work, so nothing but the file exists afterwards
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr("sigmaevo.cli._run_subcommand", None)
    args = ["linear", "--output_dir", str(blocker / "out")]
    for key, value in FAST_LINEAR.items():
        args += [f"--{key}", value]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: key 'output_dir': ")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_runtime_failure_exits_1(tmp_path, monkeypatch):
    # a ValueError raised once the run has started is a failure, not bad input
    def broken_run(*args, **kwargs):
        raise ValueError("failed mid-run")

    monkeypatch.setattr("sigmaevo.cli.run_linear", broken_run)
    out = tmp_path / "out"
    args = ["linear", "--output_dir", str(out)]
    for key, value in FAST_LINEAR.items():
        args += [f"--{key}", value]
    assert main(args) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 1
    assert manifest["error"] == {"class": "ValueError",
                                 "message": "failed mid-run"}


@pytest.mark.parametrize("profile", ["gaussian", "spectral_tail"])
def test_overflowing_amplitude_is_refused(tmp_path, capsys, profile):
    # the data transform of 1e308 overflows: bad input, refused before the
    # run; 1e306 still runs
    args = ["linear", "--profile", profile, "--N", "64", "--L", "100",
            "--t_end", "10", "--output_dir", str(tmp_path)]
    assert main(args + ["--epsilon", "1e308"]) == 2
    assert "epsilon" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["error"]["class"] == "ValidationError"
    assert main(args + ["--epsilon", "1e306"]) == 0


def test_negative_seed_is_refused(tmp_path, capsys):
    args = ["linear", "--profile", "noise_bandlimited", "--seed", "-1",
            "--N", "256", "--L", "100", "--t_end", "10", "--n_samples", "30",
            "--output_dir", str(tmp_path)]
    assert main(args) == 2
    assert "seed" in capsys.readouterr().err


def test_oracle_test_subcommand(tmp_path):
    assert main(["oracle-test", "--output_dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "oracle_test.json").read_text())
    # JSON true and JSON numbers, not the repr of numpy scalars
    assert report["passed"] is True
    for suite in ("kernel", "riesz"):
        assert report[suite]["passed"] is True
        assert isinstance(report[suite]["max_rel_error"], float)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "oracle_test.json" in manifest["outputs"]


def test_oracle_test_reports_the_picard_cross_check(tmp_path):
    # integrate's nonlinear part against the Picard fixed point, at two
    # steps, in 1-D and 2-D and two powers each, with the gap bounds and a
    # second order
    assert main(["oracle-test", "--output_dir", str(tmp_path)]) == 0
    suite = json.loads((tmp_path / "oracle_test.json").read_text())["picard"]
    assert suite["passed"] is True and suite["min_order"] == 1.8
    assert [(case["n"], case["p"]) for case in suite["cases"]] == [
        (1, 4.0), (1, 2.5), (2, 4.0), (2, 2.5)]
    for case in suite["cases"]:
        assert case["passed"] is True and case["dt"] == [0.04, 0.02]
        assert all(isinstance(g, float) and 0 < g <= b
                   for g, b in zip(case["gaps"], case["bounds"]))
        assert case["order"] >= 1.8


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
    assert verdicts["blowup_step"] == 18
    assert verdicts["blowup_time"] == pytest.approx(1.8)
    assert verdicts["blowup_reason"] == "runaway or non-finite norms"


def test_semilinear_admissible_point_succeeds(tmp_path):
    over = {"N": "512", "L": "150", "t_end": "50", "dt": "0.25",
            "epsilon": "0.01", "window_lo": "5", "window_hi": "50",
            "output_dir": str(tmp_path / "out")}
    cfg = parse_config(None, over, subcommand="semilinear")
    assert dispatch(cfg) == 0
    verdicts = json.loads((tmp_path / "out" / "verdicts.json").read_text())
    assert verdicts["verdicts"]["u_L2"]["passed"] is True
    assert "blowup_reason" not in verdicts


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
    cfg = parse_config(None, {"output_dir": str(tmp_path / "out"),
                              "sweep_param": "alpha", "sweep_values": " , "},
                       subcommand="sweep")
    assert dispatch(cfg) == 2


def _sweep(tmp_path, key, values, **keys):
    """Run ``sigmaevo sweep`` over ``key``; return its exit status and rows."""
    out = tmp_path / "sweep"
    args = ["sweep", "--sweep_param", key, "--sweep_values", values,
            "--output_dir", str(out)]
    for name, value in keys.items():
        args += [f"--{name}", str(value)]
    status = main(args)
    with open(out / "sweep.csv", newline="") as fh:
        return status, list(csv.DictReader(fh))


def test_sweep_isolates_row_failures(tmp_path):
    status, rows = _sweep(tmp_path, "alpha", "2.0,0.25", N=256, L=150,
                          t_end=50, epsilon=1.0, window_lo=5, window_hi=50)
    assert status == 0
    assert [row["override_alpha"] for row in rows] == ["0.25", "2"]
    assert rows[0]["error"] == ""
    assert float(rows[0]["u_L2_slope"]) < 0
    # an invalid point fails as a single run would: same class, same message
    assert rows[1]["error"].startswith("ValidationError: alpha")
    assert rows[1]["n"] == rows[1]["u_L2_slope"] == rows[1]["admissible"] == ""


def test_sweep_records_negative_seed_in_its_row(tmp_path):
    status, rows = _sweep(tmp_path, "seed", "3,-1", N=256, t_end=40,
                          profile="noise_bandlimited")
    assert status == 0
    assert [row["override_seed"] for row in rows] == ["-1", "3"]
    assert rows[0]["error"].startswith("ValidationError: seed")
    assert rows[1]["error"] == ""


def test_sweep_values_may_start_with_a_minus(tmp_path):
    # "--sweep_values -1,3" used to stop in argparse ("expected one
    # argument"); both spellings must now give the same rows.
    tables = []
    for spelling in (["--sweep_values", "-1,3"], ["--sweep_values=-1,3"]):
        out = tmp_path / f"sweep{len(tables)}"
        status = main(["sweep", "--sweep_param", "seed", *spelling,
                       "--output_dir", str(out), "--N", "256", "--t_end", "40",
                       "--profile", "noise_bandlimited"])
        assert status == 0
        tables.append((out / "sweep.csv").read_text().splitlines())
    assert tables[0] == tables[1]
    assert [line.split(",")[0] for line in tables[0][1:]] == ["-1", "3"]
    assert _glue_dash_values(["linear", "--window_lo", "-1e3"]) \
        == ["linear", "--window_lo=-1e3"]
    # a flag is never taken for the value of the flag before it
    words = ["sweep", "--N", "--t_end", "-h"]
    assert _glue_dash_values(words) == words


def test_sweep_carries_blowup_label(tmp_path):
    status, rows = _sweep(tmp_path, "epsilon", "1e-3,10",
                          sweep_kind="semilinear", p=2, N=256, L=100, dt=0.1,
                          t_end=20, window_lo=2, window_hi=20)
    assert status == 0
    assert rows[1]["label"] == "growth-detected"
    assert rows[0]["error"] == ""


def test_sweep_integrability_exponents(tmp_path):
    # Data saturating each integrability class reproduces the predicted
    # m-dependent linear rates.
    status, rows = _sweep(tmp_path, "m", "1,1.5,2", N=262144, L=60000,
                          dt=0.1, t_end=1000, epsilon=1.0,
                          profile="spectral_tail", window_lo=100,
                          window_hi=1000)
    assert status == 0
    expected = {1.0: -0.25, 1.5: -1.0 / 12.0, 2.0: 0.0}
    assert [float(row["m"]) for row in rows] == sorted(expected)
    for row in rows:
        assert row["error"] == ""
        assert abs(float(row["u_L2_slope"]) - expected[float(row["m"])]) <= 0.05


def test_sweep_rows_follow_converted_values(tmp_path):
    # String order would put 100 and 400 before 50.
    status, rows = _sweep(tmp_path, "t_end", "400,50,100", N=256)
    assert status == 0
    assert [row["override_t_end"] for row in rows] == ["50", "100", "400"]
    assert [row["error"] for row in rows] == ["", "", ""]
    # each row resolved its own L and fit window, so the manifest does not
    # echo those of the base t_end
    config = json.loads((tmp_path / "sweep" / "manifest.json").read_text())[
        "config"]
    assert config["L"] == config["window_lo"] == config["window_hi"] == "auto"


# One value per sweepable key, away from the base config below; with L and
# the fit window on auto, t_end and sigma move both.  A key added to
# SWEEPABLE without a value here fails its case with a KeyError.
SWEEP_POINT = {"alpha": "0.25", "dt": "0.05", "epsilon": "2.5", "m": "1.5",
               "mean_zero": "true", "p": "3", "profile": "gaussian",
               "seed": "7", "sigma": "1.5", "t_end": "100"}


@pytest.mark.parametrize("key", SWEEPABLE)
def test_sweep_row_is_the_single_run(tmp_path, key):
    kind = "semilinear" if key in ("dt", "p") else "linear"
    base = {"N": 256, "t_end": 40, "profile": "noise_bandlimited"}
    status, (row,) = _sweep(tmp_path, key, SWEEP_POINT[key],
                            sweep_kind=kind, **base)
    assert status == 0
    args = [kind, "--output_dir", str(tmp_path / "single")]
    for name, value in {**base, key: SWEEP_POINT[key]}.items():
        args += [f"--{name}", str(value)]
    assert main(args) in (0, 3)
    single = json.loads((tmp_path / "single" / "verdicts.json").read_text())
    assert row["label"] == single["label"]
    assert row["error"] == ""
    assert single["fits"]
    for quantity, fit in single["fits"].items():
        verdict = single["verdicts"][quantity]
        assert row[f"{quantity}_slope"] == fmt17(fit["slope"])
        assert row[f"{quantity}_stderr"] == fmt17(fit["stderr"])
        assert row[f"{quantity}_pass"] == str(verdict["passed"]).lower()
        assert row[f"{quantity}_sharp"] == str(verdict["sharp"]).lower()


def test_empty_fit_window_is_refused(tmp_path, capsys):
    # used to run the whole flow, then fit 0 samples with exit status 0
    out = tmp_path / "out"
    for window in (["--window_lo", "4", "--window_hi", "3"],
                   ["--window_lo", "3", "--window_hi", "3"],
                   ["--window_lo", "6"]):  # above the auto end t_end = 5
        assert main(["linear", "--N", "64", "--L", "100", "--t_end", "5",
                     *window, "--output_dir", str(out)]) == 2
        assert "keys 'window_lo' and 'window_hi'" in capsys.readouterr().err
    assert not out.exists()


def test_short_run_with_the_auto_window_gets_its_fits(tmp_path):
    # The auto start used to be 0.1 t_end = 0.5, below the t >= 1 that a
    # fit needs: the run exited 0 with all three fits failing.
    out = tmp_path / "out"
    assert main(["linear", "--N", "64", "--L", "100", "--t_end", "5",
                 "--output_dir", str(out)]) == 0
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert verdicts["window"] == [1.0, 5.0]
    assert set(verdicts["verdicts"]) == {"u_L2", "dtu_L2", "Hsigma_semi"}
    assert all("slope" in fit for fit in verdicts["fits"].values())


def test_sparse_short_run_keeps_an_empty_verdict_set(tmp_path):
    # The semilinear-3d-sparse benchmark shape (t_end = 2, norms every
    # 0.5) on a smaller grid: the window [1, 2] holds 3 records, too few
    # to fit, which is reported, not refused.
    out = tmp_path / "out"
    assert main(["semilinear", "--n", "3", "--alpha", "1", "--p", "3",
                 "--profile", "noise_bandlimited", "--epsilon", "0.1",
                 "--N", "16", "--dt", "0.05", "--t_end", "2",
                 "--snapshot_interval", "0.5", "--output_dir", str(out)]) == 0
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert verdicts["window"] == [1.0, 2.0] and verdicts["verdicts"] == {}
    assert all("holds 3 samples" in fit["error"]
               for fit in verdicts["fits"].values())


@pytest.mark.parametrize("sub,t_end", [("linear", "1"), ("semilinear", "0.5")])
def test_empty_auto_window_is_refused(tmp_path, capsys, sub, t_end):
    out = tmp_path / "out"
    assert main([sub, "--N", "64", "--L", "100", "--t_end", t_end,
                 "--output_dir", str(out)]) == 2
    assert "the auto window_lo is max(1, 0.1 t_end)" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_point_with_an_empty_fit_window_fails_its_row(tmp_path):
    status, rows = _sweep(tmp_path, "t_end", "40,10", N=256, window_lo=20)
    assert status == 0
    assert [row["override_t_end"] for row in rows] == ["10", "40"]
    assert rows[0]["error"].startswith(
        "ValidationError: keys 'window_lo' and 'window_hi'")
    assert rows[1]["error"] == ""


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


def test_main_validation_exit(tmp_path, capsys):
    assert main(["linear", "--alpha", "2", "--n", "1",
                 "--output_dir", str(tmp_path)]) == 2
    # t_end = 2.0 is not a whole number of steps dt = 0.3
    assert main(["semilinear", "--n", "1", "--N", "64", "--t_end", "2.0",
                 "--dt", "0.3", "--output_dir", str(tmp_path)]) == 2
    # snapshot_interval = 0.15 is not a whole number of steps dt = 0.1
    assert main(["semilinear", "--n", "1", "--N", "64", "--t_end", "2.0",
                 "--dt", "0.1", "--snapshot_interval", "0.15",
                 "--output_dir", str(tmp_path)]) == 2
    for key in ("snapshot_interval", "window_lo", "window_hi"):
        assert main(["semilinear", "--n", "1", "--N", "64", "--t_end", "2.0",
                     f"--{key}", "abc", "--output_dir", str(tmp_path)]) == 2
    # a linear run needs two samples, t = 0 and t_end
    for count in ("0", "1"):
        assert main(["linear", "--N", "64", "--t_end", "2.0",
                     "--n_samples", count, "--output_dir", str(tmp_path)]) == 2
    # non-finite model values and tolerances are bad input, not results
    assert main(["semilinear", "--p", "nan", "--N", "64", "--t_end", "2.0",
                 "--output_dir", str(tmp_path)]) == 2
    for tol in ("nan", "-1"):
        assert main(["linear", "--rate_tol", tol, "--N", "64",
                     "--t_end", "2.0", "--output_dir", str(tmp_path)]) == 2
    capsys.readouterr()
    for key in ("t_end", "window_lo", "window_hi", "snapshot_interval",
                "epsilon"):
        for text in ("nan", "inf", "-inf"):
            assert main(["semilinear", "--N", "64", "--L", "100",
                         "--t_end", "2.0", f"--{key}={text}",
                         "--output_dir", str(tmp_path)]) == 2
            assert f"key '{key}'" in capsys.readouterr().err


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
