"""The four benchmark workloads, as flat sigmaevo config keys.

Every workload uses sigma = 1, m = 1 and FFT-layout grids.  Each one
stresses a different layer, and each layer change has a workload that
exercises it and one that bypasses it (see README.md):

* ``linear-1d`` -- exact-kernel linear flow (``sigmaevo linear``): kernel
  tables, one inverse FFT per sample, norm records.  No stepping.
* ``semilinear-1d-dense`` -- the criterion-5 reference run, shortened:
  five FFTs per step, norms recorded every step.
* ``semilinear-3d-sparse`` -- 3-D transforms and dealias mask, seeded
  band-limited noise, norms recorded every 10th step.
* ``picard-1d`` -- three ``picard_apply`` iterations from the zero
  trajectory: the O(n_snap^2 N) Duhamel sum and its lag tables.

``smoke=True`` shrinks every workload to toy size for the benchmark's
own tests; toy runs have no stored reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

NAMES = ("linear-1d", "semilinear-1d-dense", "semilinear-3d-sparse",
         "picard-1d")

_MODEL_1D = {"n": 1, "sigma": 1.0, "alpha": 0.5, "p": 4.0, "m": 1.0}

_KEYS = {
    # N cut from 2^18 to 2^16 so that one run holds several samples
    "linear-1d": dict(_MODEL_1D, profile="gaussian", epsilon=1.0, N=2 ** 16,
                      L=32000.0, t_end=1000.0, n_samples=200),
    # criterion-5 config with t_end shortened from 1000 to 200
    "semilinear-1d-dense": dict(_MODEL_1D, profile="gaussian", epsilon=0.01,
                                N=16384, L=2000.0, dt=0.25, t_end=200.0,
                                snapshot_interval=0.25),
    "semilinear-3d-sparse": {"n": 3, "sigma": 1.0, "alpha": 1.0, "p": 3.0,
                             "m": 1.0, "profile": "noise_bandlimited",
                             "epsilon": 0.1, "N": 64, "L": "auto",
                             "dt": 0.05, "t_end": 2.0,
                             "snapshot_interval": 0.5},
    # epsilon = 0.1 keeps all three Picard distances above rounding level;
    # t_end is half the cap of 10 (251 instead of 501 snapshots)
    "picard-1d": dict(_MODEL_1D, profile="gaussian", epsilon=0.1, N=2048,
                      L=400.0, dt=0.02, t_end=5.0),
}

_SMOKE = {
    "linear-1d": {"N": 1024, "n_samples": 64},
    "semilinear-1d-dense": {"N": 256, "t_end": 5.0},
    "semilinear-3d-sparse": {"N": 16},
    "picard-1d": {"N": 64, "L": 50.0, "t_end": 5.0},
}

PICARD_ITERATIONS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str | None  # sigmaevo CLI subcommand; None for picard-1d
    keys: dict = field(repr=False)
    seeded: bool            # inputs depend on --seed


def get(name: str, seed: int, smoke: bool = False) -> Workload:
    """Workload ``name`` with inputs made from ``seed``."""
    if name not in _KEYS:
        raise KeyError(f"unknown workload {name!r}; expected one of "
                       + ", ".join(NAMES))
    keys = dict(_KEYS[name])
    if smoke:
        keys.update(_SMOKE[name])
    seeded = keys["profile"] == "noise_bandlimited"
    if seeded:
        keys["seed"] = seed
    sub = None if name == "picard-1d" else name.split("-")[0]
    return Workload(name=name, subcommand=sub, keys=keys, seeded=seeded)


def config_text(keys: dict) -> str:
    """Render ``keys`` as a flat sigmaevo config file."""
    return "".join(f"{k} = {v}\n" for k, v in keys.items())
