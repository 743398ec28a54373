"""In-memory spans for the traced run.

A span has a name, start, end and parent (the index of the span open
when it began, or -1).  The traced child wraps three kinds of call:

* the public ``numpy.fft`` and ``scipy.fft`` transforms (``fft*``,
  ``ifft*``, ``rfft*``, ``irfft*``), wrapped before ``sigmaevo`` is
  imported, so FFT counts survive a switch to r2c or to ``scipy.fft``;
* the layer entry points that sigmaevo modules look up at call time
  (``BOUNDARIES``), wrapped only around the workload call;
* every call the benchmark itself makes (setup steps, probes).

Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import re
import time
from collections import defaultdict
from contextlib import contextmanager

FFT_SPAN = "grid.fft"
_FFT_NAME = re.compile(r"i?r?fft[2n]?")

# (sigmaevo module, attribute looked up by its callers, span name).
BOUNDARIES = (
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run_linear", "decay.run_linear"),
    ("cli", "integrate", "solver.integrate"),
    ("cli", "series_from_trajectory", "decay.series_from_trajectory"),
    ("cli", "fit_decay", "decay.fit_decay"),
    ("cli", "check_rate", "decay.check_rate"),
    ("cli", "write_norms_csv", "fieldio.write_norms_csv"),
    ("decay", "kernel_arrays", "propagator.kernel_arrays"),
    ("decay", "make_data", "data.make_data"),
    ("decay", "admissibility", "theory.admissibility"),
    ("solver", "kernel_arrays", "propagator.kernel_arrays"),
    ("solver", "duhamel_weight", "propagator.duhamel_weight"),
    ("solver", "make_data", "data.make_data"),
    ("picard", "kernel_arrays", "propagator.kernel_arrays"),
)


class Tracer:
    """Records spans; one per instrumented call."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **extra):
        idx = len(self.spans)
        record = {"id": idx, "name": name, "start": time.perf_counter(),
                  "end": None,
                  "parent": self._open[-1] if self._open else -1, **extra}
        self.spans.append(record)
        self._open.append(idx)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def in_fft(self) -> bool:
        return bool(self._open) and self.spans[self._open[-1]]["name"] == FFT_SPAN

    def install_fft_wrappers(self) -> list[str]:
        """Wrap the public transforms of numpy.fft and scipy.fft."""
        import numpy.fft
        import scipy.fft
        wrapped = []
        for module in (numpy.fft, scipy.fft):
            for name in dir(module):
                fn = getattr(module, name)
                if _FFT_NAME.fullmatch(name) and callable(fn):
                    qualname = f"{module.__name__}.{name}"
                    setattr(module, name, self._fft_wrapper(fn, qualname))
                    wrapped.append(qualname)
        return wrapped

    def _fft_wrapper(self, fn, qualname: str):
        short = qualname.rsplit(".", 1)[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.in_fft():  # a transform built on another counts once
                return fn(*args, **kwargs)
            with self.span(FFT_SPAN, fn=qualname) as record:
                out = fn(*args, **kwargs)
            record["bytes"], record["flops"] = _fft_cost(short, args, kwargs,
                                                         out)
            return out
        return traced

    @contextmanager
    def boundaries(self, package, skipped: dict):
        """Wrap ``BOUNDARIES`` in ``package`` for the duration of the block.

        Entry points that no longer exist are listed in ``skipped`` with
        a reason; the run goes on without their spans.
        """
        patched = []
        for mod_name, attr, span_name in BOUNDARIES:
            module = getattr(package, mod_name, None)
            original = getattr(module, attr, None)
            if not callable(original):
                skipped[f"{mod_name}.{attr}"] = "entry point not found"
                continue
            setattr(module, attr, self.wrap(original, span_name))
            patched.append((module, attr, original))
        try:
            yield
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _fft_cost(name: str, args, kwargs, out) -> tuple[int, float]:
    """Computed bytes (input + output) and flops of one transform call.

    A complex transform of M points costs 5 M log2 M flops, a real one
    2.5 M log2 M; batched and multi-axis calls sum over their lines.
    """
    import numpy as np
    a = np.asarray(args[0])
    real = "rfft" in name
    sized = (out if name.startswith("irfft") else a) if real else out
    axes = kwargs.get("axes", kwargs.get("axis"))
    if axes is None and len(args) > 2:
        axes = args[2]
    if axes is None:
        if name.endswith("n"):
            axes = range(-sized.ndim, 0)
        else:
            axes = (-2, -1) if name.endswith("2") else (-1,)
    elif isinstance(axes, int):
        axes = (axes,)
    points = math.prod(sized.shape[ax] for ax in axes)
    flops = (2.5 if real else 5.0) * sized.size * math.log2(max(points, 1))
    return int(a.nbytes + out.nbytes), flops


def duration(record: dict) -> float:
    return record["end"] - record["start"]


def subtree(spans: list[dict], root: int) -> range:
    """Indices of ``root`` and its descendants (spans open in order)."""
    end = spans[root]["end"]
    stop = root + 1
    while stop < len(spans) and spans[stop]["start"] < end:
        stop += 1
    return range(root, stop)


def self_times(spans: list[dict], indices) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = defaultdict(float)
    for i in indices:
        if spans[i]["parent"] >= 0:
            covered[spans[i]["parent"]] += duration(spans[i])
    return [duration(spans[i]) - covered[i] for i in indices]


def layer_self_times(spans: list[dict], root: int) -> dict[str, float]:
    """Self time per layer inside ``root``; the root's own self time is
    reported as ``unaccounted``."""
    indices = subtree(spans, root)
    out: dict[str, float] = defaultdict(float)
    for i, own in zip(indices, self_times(spans, indices)):
        layer = "unaccounted" if i == root else spans[i]["name"].split(".")[0]
        out[layer] += own
    return dict(out)
