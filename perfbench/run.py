"""sigmaevo benchmark: run one workload for a fixed time and report metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is a fresh child process (``child.py``) that imports
sigmaevo from ``src/``, builds the workload's inputs from ``--seed``, makes
the user-facing call once and checks its outputs.  Children run one at a
time, with BLAS/OpenMP threads capped at the CPU count, until ``--seconds``
are used up.  A calibration process (``calibrate.py``, no sigmaevo) runs
before the first child and after each one; the children's wall and
set-up times are scaled to reference seconds by the median of the run's
calibration timings.  With ``--trace 0`` the end-to-end metrics are the medians
over the children whose outputs passed the check; with ``--trace 1`` one
extra traced child gives the per-layer metrics and the untraced children
give the tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report with units, sample counts, quartiles and run metadata.
All files go under ``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics as metric_table
import workloads
from calibrate import CAL_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment for children: thread pools capped at the CPU count."""
    env = dict(os.environ)
    cap = _cpu_count()
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, cap))
        except ValueError:
            current = cap
        env[var] = str(max(1, min(current, cap)))
    env.pop("SIGMAEVO_OUTPUT_DIR", None)  # would redirect the CLI's outputs
    env["TMPDIR"] = str(WORK)
    return env


def run_child(args, trace: bool, index: int, record: bool = False):
    """Run one child to completion; return (result or None, error or None)."""
    workdir = WORK / f"{args.workload}-{os.getpid()}-{index}"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir)]
    cmd += ["--trace"] * trace + ["--smoke"] * args.smoke
    cmd += ["--record"] * record
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(time.perf_counter())],
                              capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {CHILD_TIMEOUT_S} s"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
        return None, f"child exit status {proc.returncode}: {tail}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["error"]


def run_calibration() -> float:
    """Seconds of one ``calibrate.kernel()``, timed in its own process."""
    proc = subprocess.run([sys.executable, str(HERE / "calibrate.py")],
                          capture_output=True, text=True, cwd=ROOT,
                          env=child_env(), timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout)


def _git(*argv) -> str | None:
    if not (ROOT / ".git").exists():
        return None  # e.g. an exported checkout
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *argv],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, versions: dict | None, samples: dict) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    env = child_env()
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "nproc": _cpu_count(),
            "cpu_model": _cpu_model(), "versions": versions,
            "git_sha": _git("rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status),
            "thread_caps": {var: env[var] for var in THREAD_VARS},
            "samples": samples}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(args):
    """Run children until ``args.seconds`` are used; return all outcomes."""
    start = time.perf_counter()
    traced = run_child(args, trace=True, index=0) if args.trace else None
    untraced, durations = [], []
    cal = [run_calibration()]
    while True:
        t0 = time.perf_counter()
        untraced.append(run_child(args, trace=False, index=len(untraced) + 1))
        cal.append(run_calibration())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > args.seconds:
            break
    # One scale for the whole run: the median ignores a calibration that
    # caught a burst of load too short to move a whole child.
    cal_s = statistics.median(cal)
    scale = CAL_REF_S / cal_s
    for result, _ in untraced:
        if result is not None:
            result["cal_s"] = cal_s
            result["wall_s"] = result["wall_raw_s"] * scale
            result["setup_s"] = result["setup_raw_s"] * scale
    return traced, untraced


def report(args, traced, untraced) -> dict:
    outcomes = untraced + ([traced] if traced else [])
    results = [r for r, err in untraced if r is not None and err is None]
    errors = [err for _, err in outcomes if err is not None]
    samples = {name: [r[name] for r in results]
               for name in (*metric_table.END_TO_END, *metric_table.RAW,
                            "import_s")}
    values, counts, absent, tr = {}, {}, {}, None
    if args.trace:
        table = metric_table.PER_LAYER
        tr = traced[0]["trace"] if traced[0] is not None else None
        if tr is not None and results:
            values.update(tr["metrics"])
            absent.update(tr["absent"])
            values["cli.import_s"] = statistics.median(samples["import_s"])
            values["trace.overhead_s"] = (
                tr["metrics"]["cli.main_s"]
                - statistics.median(samples["wall_raw_s"]))
        counts = {name: 1 for name in values}
        counts["cli.import_s"] = counts["trace.overhead_s"] = len(results)
    else:
        table = metric_table.END_TO_END
        for name in table:
            if results:
                values[name] = statistics.median(samples[name])
                counts[name] = len(results)

    versions = next((r["versions"] for r, _ in outcomes if r), None)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} children={len(outcomes)}")
    print("# meta " + json.dumps(metadata(args, versions, counts)))
    for name, unit in table.items():
        if name not in values:
            print(f"{name:32s} absent: {absent.get(name, 'not measured')}")
            continue
        line = f"{name:32s} {values[name]:<14.6g} {unit:12s} n={counts[name]}"
        if not args.trace and len(samples[name]) > 1:
            q1, _, q3 = quartiles(samples[name])
            line += f"  q1={q1:.6g} q3={q3:.6g}"
        print(line)
    raw = {name: statistics.median(samples[name])
           for name in metric_table.RAW if results}
    for name, value in raw.items():
        q1, _, q3 = quartiles(samples[name])
        print(f"{name:32s} {value:<14.6g} {metric_table.RAW[name]:12s} "
              f"n={len(results)}  q1={q1:.6g} q3={q3:.6g}  (no bound)")
    print(f"{'error_rate':32s} {len(errors) / len(outcomes):<14.6g} "
          f"{'ratio':12s} n={len(outcomes)}")
    print("# raw " + json.dumps(raw))
    for err in errors:
        print(f"failed: {err}")
    if args.trace and traced[0] is not None:
        tr = traced[0]["trace"]
        print("# layers " + json.dumps(tr["layers"]))
        print("# probe_self_s " + json.dumps(tr["probe_self_s"]))
        print("# skipped_boundaries " + json.dumps(tr["skipped_boundaries"]))
    # Absent probes do not make a run wrong; failed children do.
    correct = not errors and bool(results) and (not traced or bool(tr))
    return {"correct": correct,
            "attempted": len(outcomes), "failed": len(errors),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in table.items() if name in values}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy-size workloads (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sigmaevo" / "__init__.py").is_file():
        print(f"error: no sigmaevo sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    traced, untraced = measure(args)
    result = report(args, traced, untraced)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
