"""The benchmark's own tests, at toy size (``run.py --smoke``).

They check that every metric of BENCHMARK.json is emitted with its unit,
that the traced FFT counts match the hand count of the code, that the
output check trips on a perturbed reference, that children failing it
stay out of the medians, that a missing probe entry point is recorded
as absent, and that the benchmark refuses to run without the sigmaevo
sources.  No timing is asserted.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import metrics
import outcheck
import probes
import run
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(tmp_root: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv],
                          capture_output=True, text=True, cwd=tmp_root,
                          timeout=300)


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _hand_fft_count(name: str) -> int:
    """Transforms the seed code makes in one toy run of ``name``."""
    wl = workloads.get(name, 0, smoke=True)
    keys = wl.keys
    if name == "linear-1d":
        return keys["n_samples"] + 1               # u1, then one per sample
    if name == "picard-1d":
        snaps = round(keys["t_end"] / keys["dt"]) + 1
        return workloads.PICARD_ITERATIONS * (3 * snaps + 1)
    steps = round(keys["t_end"] / keys["dt"])
    every = round(keys.get("snapshot_interval", keys["dt"]) / keys["dt"])
    records = -(-steps // every) + 1
    data = 2 if keys["profile"] == "noise_bandlimited" else 0
    return 4 * steps + records + 1 + data          # 2 per nonlinearity


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_traced_run_emits_every_per_layer_metric(name):
    proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.1",
                "--trace", "1", "--smoke")
    result = _result(proc)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == metrics.PER_LAYER
    assert result["metrics"]["grid.fft_calls"]["value"] == _hand_fft_count(name)


def test_smoke_untraced_run_emits_every_end_to_end_metric():
    proc = _run(ROOT, "--workload", "semilinear-3d-sparse", "--seed", "7",
                "--seconds", "0.1", "--trace", "0", "--smoke")
    result = _result(proc)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == metrics.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_output_check_trips_on_perturbed_reference():
    args = argparse.Namespace(workload="linear-1d", seed=0, smoke=True)
    run.WORK.mkdir(exist_ok=True)
    result, error = run.run_child(args, trace=False, index=0, record=True)
    assert error is None
    outputs = result["outputs"]
    reference = outcheck.reference_entry("linear-1d", outputs)
    assert reference["verdicts"]
    assert outcheck.compare(outputs, reference) is None

    perturbed = json.loads(json.dumps(reference))
    perturbed["norms"][5][1] *= 1.0 + 1e-6
    assert "norms[5][1]" in outcheck.compare(outputs, perturbed)
    perturbed = dict(reference, label="growth-detected")
    assert "label" in outcheck.compare(outputs, perturbed)
    perturbed = dict(reference, verdicts={q: not v for q, v in
                                          reference["verdicts"].items()})
    assert "verdicts" in outcheck.compare(outputs, perturbed)
    assert "exit_status" in outcheck.compare(dict(outputs, exit_status=3),
                                             reference)
    distances = {"exit_status": 0, "distances": [0.25, 3e-5, 4e-9]}
    assert outcheck.compare(distances, distances) is None
    assert "distances[2]" in outcheck.compare(
        distances, dict(distances, distances=[0.25, 3e-5, 5e-9]))


def test_failed_children_count_but_stay_out_of_medians():
    args = argparse.Namespace(workload="linear-1d", seed=0, seconds=1.0,
                              trace=0, smoke=True)
    good = {"wall_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 100.0,
            "wall_raw_s": 1.0, "setup_raw_s": 1.0, "cal_s": 0.1,
            "import_s": 0.5, "versions": {}}
    wrong = {name: 9.0 * value if isinstance(value, float) else value
             for name, value in good.items()}
    result = run.report(args, None, [(good, None),
                                     (wrong, "norms[0][1] differs"),
                                     (wrong, "norms[0][1] differs")])
    assert result["attempted"] == 3 and result["failed"] == 2
    assert not result["correct"]
    assert {k: v["value"] for k, v in result["metrics"].items()} \
        == {"wall_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 100.0}


def test_stored_references_cover_every_workload():
    for name in workloads.NAMES:
        stored = json.loads(outcheck.reference_path(name).read_text())
        assert stored["seeded"] == workloads.get(name, 0).seeded
        for entry in stored["outputs"].values():
            assert set(entry) == set(outcheck.REFERENCE_KEYS[name])
            assert outcheck.invariants(name, entry) is None


def test_missing_entry_point_is_recorded_as_absent(tmp_path):
    def gone():
        raise AttributeError("module 'sigmaevo' has no attribute 'solver'")

    inputs = probes.Inputs(types.SimpleNamespace(), gone, tmp_path / "x.cfg",
                           "linear", tmp_path)
    found, absent, probe_self = {}, {}, {}
    probes.run_probes(Tracer(), inputs, found, absent, probe_self)
    assert found == {}
    assert set(absent) == {n for n in metrics.PER_LAYER
                           if n.endswith("_s") and n not in (
                               "cli.import_s", "cli.main_s", "grid.fft_s",
                               "solver.step_mean_s", "picard.picard_apply_s",
                               "trace.overhead_s")}
    assert all(reason for reason in absent.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "linear-1d", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
