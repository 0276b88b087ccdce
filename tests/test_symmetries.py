"""Oracles from the model's exact symmetries.

Mode folding: data in the modes {0, m, 2m, ..} on (0, L) with N modes stay
there, and equal the run on (0, L/m) with N/m modes.  The padded nodes of
the N-mode grid on (0, L/m) are those of the N/m-mode grid, and every node
map is pointwise, so the two runs differ by roundoff alone.  At N = 256 ->
128 the folded run takes the FFT transform pair and the other the matrix
one (``spectral_core._MATRIX_MAX_N``).
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from fastslow import FastSlowState, ModelParams, SpectralField, build_grid, simulate
from fastslow.spectral_core import _MATRIX_MAX_N
from oracles import spread_modes

FOLD_RTOL = 1e-13

FOLD_CASES = list(itertools.product(("nonlinear", "linear"), (1e-1, 1e-3, 1e-6), (0.0, 0.1)))


@pytest.mark.parametrize("kind,eps,delta", FOLD_CASES)
def test_simulate_commutes_with_mode_folding(kind, eps, delta):
    N = 2 * _MATRIX_MAX_N
    rng = np.random.default_rng(FOLD_CASES.index((kind, eps, delta)))
    L = math.pi * rng.uniform(0.5, 2.0)
    half = ModelParams(d=rng.uniform(0.5, 2.0), delta=delta, eps=eps,
                       kappa=rng.choice([0.3, 1.0]), L=L / 2, model_kind=kind)
    taper = 1.0 / (1.0 + np.arange(N // 2)) ** 2
    data = rng.standard_normal((2, N // 2)) * 0.3 * taper
    data[:, 0] += 1.0
    dt = min(0.25 * eps, 1e-3)
    runs = []
    for params, n, coeffs in ((half, N // 2, data), (replace(half, L=L), N, spread_modes(data, 2))):
        grid = build_grid(params.L, n)
        state = FastSlowState(SpectralField(grid, coeffs[0]), SpectralField(grid, coeffs[1]), 0.0)
        runs.append(simulate(state, params, T=8 * dt, dt=dt, sample_every=2).coeffs)
    ref, folded = runs
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(folded[..., ::2] - ref)) <= FOLD_RTOL * scale
    assert np.max(np.abs(folded[..., 1::2])) <= FOLD_RTOL * scale
    assert np.max(np.abs(ref[-1] - ref[0])) > 1e3 * FOLD_RTOL * scale  # the run moved
