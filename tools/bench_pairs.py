"""Run alternating benchmark pairs from two checkouts and judge a claim.

    python3 tools/bench_pairs.py A B --workload W [--pairs 10] [--seed S]
                                 [--json PATH]

``A`` is the parent's checkout and ``B`` the change's; each holds its own
``perfbench/`` and ``src/``.  Pair ``i`` runs ``perfbench/run.py
--workload W --seed S --seconds T --trace 0`` in both checkouts, one
process at a time: even pairs ``A`` first, odd pairs ``B`` first.  ``T``
is ``run_seconds`` of the ``BENCHMARK.json`` next to this script, which
also gives each end-to-end metric's better direction.  A child's heap,
and with it ``peak_rss_mb``, follows the length of the path it runs
from, so checkouts at paths of unequal length are refused.  Whether
``PYTHONDONTWRITEBYTECODE`` is set is recorded: run.py passes it on, and
children that compile every module from source read more memory and
time.

For each metric it prints both sides' median and quartiles over the
pairs (the calibrated end-to-end metrics, then run.py's ``# raw``
medians, which are lower-is-better times) and the pairs the change won.
A metric's verdict is ``claimed`` when the change is better in at least
nine of ten pairs and its median beyond the parent's by more than the
parent's interquartile range.  ``--json`` writes every run (run.py's
result, raw medians and metadata) as one JSON object, to be kept in a
``BENCH_*.json``.  perfbench is only run, never written; run.py keeps
its work files in each checkout's ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW = ("wall_raw_s", "setup_raw_s", "cal_s")


def run_once(checkout: Path, workload: str, seed: int, seconds: float
             ) -> dict:
    """One ``run.py --trace 0`` in ``checkout``: its result line, its raw
    medians and its metadata."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: run.py printed nothing (exit status "
                         f"{proc.returncode}):\n{proc.stderr}")
    tagged = {tag: json.loads(line[len(tag):]) for line in lines
              for tag in ("# raw ", "# meta ") if line.startswith(tag)}
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update(tagged.get("# raw ", {}))
    return {"exit_status": proc.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "values": values, "meta": tagged.get("# meta ")}


def spread(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (linear interpolation)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(parent: list[float], change: list[float], lower: bool) -> dict:
    """The change's wins over the pairs and the claim's verdict."""
    sign = 1.0 if lower else -1.0
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    (p1, pm, p3), (_, cm, _) = spread(parent), spread(change)
    beyond = sign * (pm - cm) > p3 - p1
    return {"wins": wins, "pairs": len(parent), "parent_iqr": p3 - p1,
            "claimed": 10 * wins >= 9 * len(parent) and beyond}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="the parent's checkout")
    parser.add_argument("b", type=Path, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=Path, help="file for every run")
    args = parser.parse_args(argv)
    sides = {"parent": args.a.resolve(), "change": args.b.resolve()}
    if len(str(sides["parent"])) != len(str(sides["change"])):
        parser.error(f"checkout paths differ in length: {sides['parent']} "
                     f"and {sides['change']}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    no_bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE")
    print(f"workload {args.workload} seed {args.seed}: {args.pairs} pairs "
          f"of {seconds} s; PYTHONDONTWRITEBYTECODE="
          f"{no_bytecode if no_bytecode is not None else '(unset)'}")

    runs = {side: [] for side in sides}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(sides[side], args.workload, args.seed, seconds)
            run["pair"] = pair
            runs[side].append(run)
            print(f"pair {pair} {side}: " + ", ".join(
                f"{k} {v:.6g}" for k, v in run["values"].items())
                + f" (failed {run['failed']} of {run['attempted']})",
                flush=True)

    verdicts = {}
    for name in (*better, *RAW):
        series = {side: [r["values"].get(name) for r in runs[side]]
                  for side in sides}
        if any(v is None for vs in series.values() for v in vs):
            print(f"{name:14s} missing in some run")
            continue
        lower = better.get(name, "lower") == "lower"
        verdicts[name] = judge(series["parent"], series["change"], lower)
        v = verdicts[name]
        text = "  ".join(
            f"{side} {m:.6g} [{q1:.6g}, {q3:.6g}]"
            for side, (q1, m, q3) in ((s, spread(series[s])) for s in sides))
        print(f"{'# raw ' if name in RAW else ''}{name:14s} {text}  change "
              f"better in {v['wins']} of {v['pairs']}; parent IQR "
              f"{v['parent_iqr']:.6g}; "
              + ("claimed" if v["claimed"] else "not claimed"))
    if args.json is not None:
        args.json.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": seconds, "pairs": args.pairs,
            "PYTHONDONTWRITEBYTECODE": no_bytecode,
            "checkouts": {side: str(path) for side, path in sides.items()},
            "verdicts": verdicts, "runs": runs}, indent=1) + "\n")
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
