import tracemalloc

import numpy as np
import pytest

from sigmaevo.data import (DIPOLE_SHIFT, PROFILES, _bump, _gaussian,
                           make_profile)
from sigmaevo.grid import GridSpec, build_grid
from sigmaevo.params import ModelParams
from sigmaevo.solver import SolverConfig, make_data

from full_layout import full_forward, full_inverse, full_xi_mag


# Reference: the profiles as first written, on the full complex layout with
# the lattice phase on both sides of every round trip.

def _noise_full(grid, seed):
    n = grid.spec.points_per_axis
    rng = np.random.default_rng(seed)
    coeffs = full_forward(grid, rng.standard_normal(grid.shape))
    j2 = np.meshgrid(*[idx * idx for idx in grid.indices], indexing="ij")
    coeffs[np.sqrt(sum(j2)) > n / 8.0] = 0.0
    field = full_inverse(grid, coeffs)
    return field / np.max(np.abs(field))


def _spectral_tail_full(grid, n, m):
    gam = n * (1.0 - 1.0 / m)
    xi_mag = full_xi_mag(grid)
    q = np.maximum(xi_mag, 2.0 * np.pi / grid.box_length)
    coeffs = (q ** (-gam) * np.exp(-xi_mag ** 2 / 2.0)).astype(complex)
    field = full_inverse(grid, coeffs)
    return field / np.sqrt(np.sum(field * field) * grid.cell_volume)


def _dipole_full(grid, values):
    coeffs = full_forward(grid, values)
    shape = [1] * grid.dim
    shape[0] = grid.spec.points_per_axis
    factor = -2j * np.sin(grid.wavenumbers[0] * DIPOLE_SHIFT).reshape(shape)
    return full_inverse(grid, coeffs * factor)


def _reference_profile(grid, profile, seed, mean_zero, n, m):
    values = {"gaussian": lambda: _gaussian(grid),
              "bump": lambda: _bump(grid),
              "noise_bandlimited": lambda: _noise_full(grid, seed),
              "spectral_tail": lambda: _spectral_tail_full(grid, n, m)}[profile]()
    return _dipole_full(grid, values) if mean_zero else values


@pytest.mark.parametrize("dim,points", [(1, 128), (1, 2048), (2, 64), (3, 32)])
@pytest.mark.parametrize("mean_zero", [False, True])
@pytest.mark.parametrize("profile", PROFILES)
def test_profiles_match_full_layout_reference(dim, points, mean_zero, profile):
    grid = build_grid(GridSpec(dim, points, 30.0))
    got = make_profile(grid, profile, 1.0, seed=7, mean_zero=mean_zero,
                       m=1.5).values
    ref = _reference_profile(grid, profile, 7, mean_zero, dim, 1.5)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("seed", [0, 3])
def test_noise_data_memory_peak_is_its_inverse_transform(seed):
    # 64^3 noise data peaks in its inverse transform, which holds the
    # masked half spectrum, the two complex temporaries of numpy's
    # irfftn and the field it fills: 3 complex half tables and 1 field.
    # Measured about 5 KB above that.  The headroom is a quarter of a
    # field (512 KiB): the |j| mesh kept through the inverse (half a
    # field) or |field| formed for its peak (one field) each exceed it.
    n = 64
    cfg = SolverConfig(params=ModelParams(n=3, sigma=1.0, alpha=1.0, p=3.0,
                                          m=1.0),
                       grid=GridSpec(3, n, 30.0), dt=0.05, t_end=0.5,
                       data_amplitude=0.1, data_profile="noise_bandlimited",
                       seed=seed)
    grid = build_grid(cfg.grid)
    make_data(cfg, grid)  # first-call imports are not the data's memory
    tracemalloc.start()
    try:
        make_data(cfg, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field, table = 8 * n ** 3, 16 * n * n * (n // 2 + 1)
    assert peak <= 3 * table + field + field // 4
