"""Oracles from the model's exact symmetries.

Mode folding: data in the modes {0, m, 2m, ..} on (0, L) with N modes stay
there, and equal the run on (0, L/m) with N/m modes.  The padded nodes of
the N-mode grid on (0, L/m) are those of the N/m-mode grid, and every node
map is pointwise, so the two runs differ by roundoff alone.  At N = 256 ->
128 the folded run takes the FFT transform pair and the other the matrix
one (``spectral_core._MATRIX_MAX_N``).

Reflection: x -> L - x maps the half-sample nodes onto themselves in
reverse order, so the limit system run, and a convergence member's full
and limit systems stepped together, from reflected data are the reflected
runs (``oracles.reflected``).

Mode folding of the closed forms: mode m k on (0, L) has mu = (m k pi / L)^2,
that of mode k on (0, L/m), so ``linear_manifold``'s rates, slopes and
mode solutions of the two agree to roundoff.

Parabolic scaling: w(x / s, t / s^2) solves the system on (0, s L) with
eps -> s^2 eps and a, b, c -> (a, b, c) / s^2, and d, delta and kappa
fixed.  Both runs take the same steps on the same nodes, with symbols and
steps scaled by 1 / s^2 and s^2, so they differ by roundoff alone; s = 3,
because scaling by a power of 2 is exact in binary.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from fastslow import (
    FastSlowState,
    ModelParams,
    SpectralField,
    build_grid,
    closed_form_solution,
    mode_spectrum,
    simulate,
    solve_limit_system,
)
from fastslow.spectral_core import _MATRIX_MAX_N
from oracles import reflected, spread_modes

FOLD_RTOL = 1e-13
CLOSED_FORM_RTOL = 1e-13
REFLECT_RTOL = 1e-13
SCALE_RTOL = 1e-12

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


# both transform paths: N = 8 and N = 256 (FFT) around _MATRIX_MAX_N
SYMMETRY_CASES = list(itertools.product(
    ("nonlinear", "linear"), (1e-1, 1e-3, 1e-6), (0.0, 0.1), (8, 2 * _MATRIX_MAX_N)
))


def symmetry_case(kind, eps, delta, N):
    # seeded parameters and positive data with a decaying spectrum
    rng = np.random.default_rng(SYMMETRY_CASES.index((kind, eps, delta, N)))
    params = ModelParams(d=rng.uniform(0.5, 2.0), delta=delta, eps=eps,
                         kappa=rng.choice([0.3, 1.0]), a=rng.uniform(0.5, 2.0),
                         b=rng.uniform(0.5, 2.0), c=rng.uniform(0.5, 2.0),
                         L=math.pi * rng.uniform(0.5, 2.0), model_kind=kind)
    data = rng.standard_normal((2, N)) * 0.3 / (1.0 + np.arange(N)) ** 2
    data[:, 0] += 1.0
    return params, data, min(0.25 * eps, 1e-3)


@pytest.mark.parametrize("kind,eps,delta,N", SYMMETRY_CASES)
def test_solve_limit_system_commutes_with_reflection(kind, eps, delta, N):
    params, data, dt = symmetry_case(kind, eps, delta, N)
    grid = build_grid(params.L, N)
    ref, mirrored = (
        solve_limit_system(SpectralField(grid, v), params, T=8 * dt, dt=dt, sample_every=2).coeffs
        for v in (data[1], reflected(data[1]))
    )
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(mirrored - reflected(ref))) <= REFLECT_RTOL * scale
    assert np.max(np.abs(ref[-1] - ref[0])) > 1e3 * REFLECT_RTOL * scale  # the run moved


@pytest.mark.parametrize("kind,eps,delta,N", SYMMETRY_CASES)
def test_a_convergence_member_commutes_with_reflection(kind, eps, delta, N):
    # a member of rates.convergence_study steps (u, v) and v_lim in one
    # loop; from reflected data its rows are those of the separate solvers,
    # bit for bit, and the reflected rows of the member from the data
    from fastslow.reduction import _simulate_with_limit

    params, data, dt = symmetry_case(kind, eps, delta, N)
    grid = build_grid(params.L, N)
    members = []
    for coeffs in (data, reflected(data)):
        state = FastSlowState(SpectralField(grid, coeffs[0]), SpectralField(grid, coeffs[1]), 0.0)
        members.append(_simulate_with_limit(state, params, 8 * dt, dt, 2))
    apart = (simulate(state, params, T=8 * dt, dt=dt, sample_every=2),
             solve_limit_system(state.v, params, T=8 * dt, dt=dt, sample_every=2))
    for together, alone in zip(members[1], apart):
        assert np.array_equal(together.coeffs, alone.coeffs)
    for ref, mirrored in zip(*members):
        scale = np.max(np.abs(ref.coeffs))
        assert np.max(np.abs(mirrored.coeffs - reflected(ref.coeffs))) <= REFLECT_RTOL * scale
        assert np.max(np.abs(ref.coeffs[-1] - ref.coeffs[0])) > 1e3 * REFLECT_RTOL * scale


@pytest.mark.parametrize("kind,eps,delta,N", SYMMETRY_CASES)
def test_simulate_commutes_with_parabolic_scaling(kind, eps, delta, N):
    s = 3.0
    params, data, dt = symmetry_case(kind, eps, delta, N)
    scaled = replace(params, L=s * params.L, eps=s**2 * params.eps,
                     a=params.a / s**2, b=params.b / s**2, c=params.c / s**2)
    runs = []
    for p, step in ((params, dt), (scaled, s**2 * dt)):
        grid = build_grid(p.L, N)
        state = FastSlowState(SpectralField(grid, data[0]), SpectralField(grid, data[1]), 0.0)
        runs.append(simulate(state, p, T=8 * step, dt=step, sample_every=2))
    ref, stretched = runs
    assert np.allclose(stretched.times, s**2 * ref.times, rtol=1e-15, atol=0.0)
    scale = np.max(np.abs(ref.coeffs))
    assert np.max(np.abs(stretched.coeffs - ref.coeffs)) <= SCALE_RTOL * scale
    moved = np.max(np.abs(ref.coeffs[-1] - ref.coeffs[0]))
    assert moved > 1e3 * SCALE_RTOL * scale


CLOSED_FORM_CASES = list(itertools.product((1e-1, 1e-3, 1e-6), (0.0, 0.1), (2, 3, 5)))
SPECTRUM_FIELDS = ("mu", "Omega", "w_plus", "w_minus", "slow_rate", "fast_rate", "slope",
                   "asymptotic_slow_rate")


@pytest.mark.parametrize("eps,delta,m", CLOSED_FORM_CASES)
def test_linear_closed_forms_commute_with_mode_folding(eps, delta, m):
    rng = np.random.default_rng(CLOSED_FORM_CASES.index((eps, delta, m)))
    L = math.pi * rng.uniform(0.5, 2.0)
    wide = ModelParams(d=rng.uniform(0.5, 2.0), delta=delta, eps=eps, L=L, model_kind="linear")
    narrow = replace(wide, L=L / m)
    times = np.linspace(0.0, min(1.0, 10 * eps), 5)
    for k in range(9):
        a, b = mode_spectrum(wide, m * k), mode_spectrum(narrow, k)
        for name in SPECTRUM_FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            assert abs(x - y) <= CLOSED_FORM_RTOL * max(abs(x), abs(y)), (k, name)
        u0, v0 = rng.standard_normal(2)
        for x, y in zip(closed_form_solution(u0, v0, wide, m * k, times),
                        closed_form_solution(u0, v0, narrow, k, times)):
            assert np.max(np.abs(x - y)) <= CLOSED_FORM_RTOL * np.max(np.abs(y)), k
