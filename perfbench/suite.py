"""Run every workload round-robin and print one summary.

    python3 perfbench/suite.py [--runs 10] [--trace] [--out FILE]

Repetition ``r`` runs each workload once, in turn, for BENCHMARK.json's
``run_seconds`` with seed ``r``, so drift on a shared machine lands on
every workload evenly; one ``run.py`` process runs at a time.  For each workload and
end-to-end metric it prints the median over runs with its unit, the
quartiles, the spread ``(q3 - q1) / median`` next to the metric's bound
from BENCHMARK.json, the run and child counts, and ``error_rate`` =
failed / attempted children.  ``--trace`` adds one traced run per
workload and prints its per-layer metrics and layer self times.
``--out`` saves everything, with run metadata, as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import metrics as metric_table
import workloads
from run import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py process; its final JSON plus the ``# key`` report lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "error": f"run.py exit {proc.returncode}: {tail}"}
    out = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# "):
            key, payload = line[2:].split(" ", 1)
            out[key] = json.loads(payload)
    out["seed"] = seed
    return out


def summarise(runs: list[dict]) -> list[str]:
    rows = []
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for name, unit in metric_table.END_TO_END.items():
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r["metrics"]]
        if not values:
            rows.append(f"  {name:12s} absent")
            continue
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med
        bound = metric_table.BOUNDS[name]
        rows.append(f"  {name:12s} {med:<10.5g} {unit:4s} q1={q1:<10.5g} "
                    f"q3={q3:<10.5g} spread={spread:.4f} "
                    f"(bound {bound}, steady below {bound / 3:.4f}) "
                    f"runs={len(values)} children={attempted}")
    for name, unit in metric_table.RAW.items():
        values = [r["raw"][name] for r in runs if name in r.get("raw", {})]
        if values:
            q1, med, q3 = quartiles(values)
            rows.append(f"  {name:12s} {med:<10.5g} {unit:4s} q1={q1:<10.5g} "
                        f"q3={q3:<10.5g} spread={(q3 - q1) / med:.4f} "
                        f"(no bound) runs={len(values)}")
    rows.append(f"  {'error_rate':12s} {failed / attempted:<10.5g} ratio "
                f"({failed}/{attempted} children failed)")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seconds = metric_table.BENCH["run_seconds"]
    runs = {w: [] for w in workloads.NAMES}
    for rep in range(args.runs):
        for w in workloads.NAMES:
            runs[w].append(run_once(w, rep, seconds, 0))
    traced = {w: run_once(w, 0, seconds, 1)
              for w in workloads.NAMES} if args.trace else {}

    if args.out:
        args.out.write_text(json.dumps({"runs": runs, "traced": traced},
                                       indent=1) + "\n")
    ok = True
    for w in workloads.NAMES:
        print(f"{w} (seconds={seconds})")
        if runs[w]:
            print("\n".join(summarise(runs[w])))
        ok = ok and all(r["correct"] for r in runs[w])
        if w in traced:
            tr = traced[w]
            ok = ok and tr["correct"]
            for name, unit in metric_table.PER_LAYER.items():
                value = tr["metrics"].get(name, {}).get("value")
                print(f"    {name:32s} "
                      + ("absent" if value is None else f"{value:<12.6g} {unit}"))
            print(f"    layer self times (s): {tr.get('layers')}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
