"""Pseudo-spectral simulator and decay-rate laboratory for doubly damped
sigma-evolution equations with a smoothing nonlocal nonlinearity."""

__version__ = "0.1.0"

from .grid import (GridSpec, Grid, RealField, SpectralField, build_grid,
                   transform_forward, transform_inverse)
from .operators import (riesz_multiplier, riesz_potential, riesz_oracle,
                        riesz_constant, lebesgue_norm, sobolev_seminorm)
from .params import ModelParams
from .propagator import propagate_linear, decay_exponent
from .solver import (SolverConfig, Trajectory, BlowUpSignal,
                     make_data, nonlinearity, etd_step, integrate,
                     horizon_limit, xt_norm, xt_distance, zero_trajectory)
from .picard import picard_apply
from .theory import (AdmissibilityReport, critical_exponent, admissibility,
                     gn_theta)
from .decay import (DecayFit, RateVerdict, run_linear, fit_decay,
                    check_rate, default_window, suggest_box_length)
from .fieldio import save_field, load_field, write_norms_csv, write_sweep_csv

__all__ = [
    "GridSpec", "Grid", "RealField", "SpectralField", "build_grid",
    "transform_forward", "transform_inverse",
    "riesz_multiplier", "riesz_potential", "riesz_oracle", "riesz_constant",
    "lebesgue_norm", "sobolev_seminorm",
    "ModelParams",
    "propagate_linear", "decay_exponent",
    "SolverConfig", "Trajectory", "BlowUpSignal", "make_data",
    "nonlinearity", "etd_step", "integrate", "horizon_limit", "xt_norm",
    "xt_distance", "zero_trajectory", "picard_apply",
    "AdmissibilityReport", "critical_exponent", "admissibility", "gn_theta",
    "DecayFit", "RateVerdict", "run_linear", "fit_decay", "check_rate",
    "default_window", "suggest_box_length",
    "save_field", "load_field", "write_norms_csv", "write_sweep_csv",
]
