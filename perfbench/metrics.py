"""Metric names and units reported by run.py (see README.md for meanings).

``END_TO_END`` (reported with ``--trace 0``) and ``PER_LAYER`` (with
``--trace 1``) are read from BENCHMARK.json, the one place they are
defined.  The two end-to-end times are in reference seconds
(``calibrate.CAL_REF_S``).  ``RAW`` values are printed in the report (and
read by suite.py) but carry no bound.
"""

import json
from pathlib import Path

BENCH = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}

RAW = {
    "wall_raw_s": "s",
    "setup_raw_s": "s",
    "cal_s": "s",
}
