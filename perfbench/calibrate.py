"""Calibration kernel: how fast the machine runs numpy work right now.

run.py starts this as its own process before the first workload child and
after every one, so it never shares a process, a heap or imports with
sigmaevo::

    python3 perfbench/calibrate.py

It prints one number, the seconds ``kernel()`` took.  Wall and set-up
times are reported in "reference seconds": measured seconds scaled by
``CAL_REF_S`` over the median of the calibration timings of the run.
"""

from __future__ import annotations

import time

import numpy as np

REPS = 80
# Median kernel() time in a fresh process on the reference VM (2 vCPU
# Xeon, numpy 2.4.6).  Fixed for good: changing it rescales every run.
CAL_REF_S = 0.26


def kernel() -> float:
    """Seconds for a fixed numpy and Python work mix, independent of sigmaevo.

    Each rep mixes what the workloads spend their time on: a 2^15-point
    FFT round trip with a ufunc and a reduction, a pass over a 4 MiB array
    (the size of a 64^3 complex field), a loop of small-array arithmetic,
    and an interpreted loop.
    """
    x = np.exp(-np.linspace(-8.0, 8.0, 1 << 15) ** 2).astype(np.complex128)
    weight = np.exp(-np.arange(x.size) / x.size)
    small = weight[:2048].copy()
    big = np.linspace(0.0, 1.0, 1 << 19)
    out = np.empty_like(big)
    start = time.perf_counter()
    acc = 0.0
    for _ in range(REPS):
        y = np.fft.ifft(np.fft.fft(x) * weight)
        z = np.exp(-np.abs(y.real))
        acc += float(np.sum(z * z))
        np.multiply(big, 0.5, out=out)
        acc += float(out[-1])
        total = np.zeros_like(small)
        for _ in range(60):
            total = total + 0.5 * small
        for j in range(1000):
            acc += j * 1e-9
    return time.perf_counter() - start

if __name__ == "__main__":
    print(repr(kernel()))
