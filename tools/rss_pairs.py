"""Compare the resident memory of fresh CLI runs from two checkouts.

Runs a perfbench CLI workload (``linear-1d``, ``semilinear-1d-dense`` or
``semilinear-3d-sparse``; ``picard-1d`` has no subcommand) as fresh
``sigmaevo`` processes, alternating between checkout A and checkout B:
for each of ``RUNS`` repetitions and each seed in ``SEEDS``, even
repetitions run A first and odd ones B first, one process at a time.  Each process imports ``sigmaevo`` from
its checkout's ``src`` and writes into its own output directory.

For each side it prints the medians of the manifest's ``peak_rss_mib``,
``minor_faults`` and ``wall_time_s``, then, per seed, whether every run
of both sides wrote the same ``norms.csv`` and ``verdicts.json`` bytes.
The last line is one JSON object with the per-run manifest values.

    python3 tools/rss_pairs.py A_DIR B_DIR [--workload W]

The workload's config comes from ``perfbench/workloads.py`` next to this
script, which is read, never written.  Outputs go to a temporary
directory that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = ("norms.csv", "verdicts.json")
MANIFEST_KEYS = ("peak_rss_mib", "minor_faults", "wall_time_s")
SEEDS = (0, 5)
RUNS = 2
RUN_CLI = ("import sys; from sigmaevo.cli import main; "
           "sys.exit(main(sys.argv[1:]))")


def run_once(checkout: Path, subcommand: str, config: Path, out: Path
             ) -> dict:
    """One fresh CLI process from ``checkout``; its manifest values and
    its output bytes."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CLI, subcommand, "--config", str(config),
         "--output_dir", str(out)],
        cwd=checkout, env=env, capture_output=True, text=True)
    if not (out / "manifest.json").is_file():
        raise SystemExit(f"{checkout}: no manifest (exit status "
                         f"{proc.returncode}):\n{proc.stderr}")
    manifest = json.loads((out / "manifest.json").read_text())
    run = {key: manifest[key] for key in MANIFEST_KEYS}
    run["exit_status"] = proc.returncode
    run["outputs"] = {name: (out / name).read_bytes()
                      for name in OUTPUTS if (out / name).is_file()}
    return run


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="first checkout (the parent)")
    parser.add_argument("b", type=Path, help="second checkout (the change)")
    parser.add_argument("--workload", default="semilinear-3d-sparse")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    if workloads.get(args.workload, 0).subcommand is None:
        parser.error(f"{args.workload} has no CLI subcommand")
    sides = {"a": args.a.resolve(), "b": args.b.resolve()}
    work = Path(tempfile.mkdtemp(prefix="rss_pairs_"))
    runs = {side: [] for side in sides}
    try:
        for rep in range(RUNS):
            for seed in SEEDS:
                wl = workloads.get(args.workload, seed)
                config = work / f"{args.workload}-seed{seed}.cfg"
                config.write_text(workloads.config_text(wl.keys))
                order = ("a", "b") if rep % 2 == 0 else ("b", "a")
                for side in order:
                    out = work / f"{side}-seed{seed}-run{rep}"
                    run = run_once(sides[side], wl.subcommand, config, out)
                    run["seed"] = seed
                    runs[side].append(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for side, path in sides.items():
        medians = {key: statistics.median(r[key] for r in runs[side])
                   for key in MANIFEST_KEYS}
        print(f"{side} {path}: " + ", ".join(
            f"{key} {value:.6g}" for key, value in medians.items())
            + f" (median of {len(runs[side])}; exit statuses "
            f"{sorted({r['exit_status'] for r in runs[side]})})")
    for seed in SEEDS:
        for name in OUTPUTS:
            found = {r["outputs"].get(name) for side in sides
                     for r in runs[side] if r["seed"] == seed}
            same = len(found) == 1 and None not in found
            print(f"seed {seed} {name}: "
                  + ("byte-identical" if same else "DIFFERS or missing"))
    print(json.dumps({
        "workload": args.workload,
        "runs": {side: [{k: v for k, v in r.items() if k != "outputs"}
                        for r in runs[side]] for side in sides}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
