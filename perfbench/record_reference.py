"""Record the reference outputs that the output check compares against.

    python3 perfbench/record_reference.py

Runs each workload once in a fresh child, exactly as run.py does, and
writes ``perfbench/reference/<workload>.json``.  Seeded workloads get one
entry per seed ``0 .. SEEDS-1``; the others one entry for every seed.
Only record at a commit whose outputs are trusted: the stored files are
what later commits must reproduce to rounding.
"""

from __future__ import annotations

import argparse
import json
import sys

import outcheck
import run
import workloads


SEEDS = 32  # seeds recorded for seeded workloads


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        seeded = workloads.get(name, 0).seeded
        stored = {"workload": name, "seeded": seeded, "outputs": {}}
        for seed in range(SEEDS if seeded else 1):
            child_args = argparse.Namespace(workload=name, seed=seed,
                                            smoke=False)
            result, error = run.run_child(child_args, trace=False, index=seed,
                                          record=True)
            if result is None:
                print(f"{name} seed {seed}: {error}", file=sys.stderr)
                return 1
            key = str(seed) if seeded else "*"
            stored["outputs"][key] = outcheck.reference_entry(
                name, result["outputs"])
            print(f"{name} seed {key}: recorded")
        outcheck.REFERENCE_DIR.mkdir(exist_ok=True)
        outcheck.reference_path(name).write_text(
            json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
