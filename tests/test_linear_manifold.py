import numpy as np
import pytest

from fastslow import (
    FastSlowState,
    ModelParams,
    SpectralField,
    build_grid,
    closed_form_solution,
    invariance_and_distance,
    linear_propagator,
    mode_spectrum,
    simulate,
)
from fastslow.errors import ConfigurationError


def linear_params(eps=0.1, delta=0.1, d=1.0):
    return ModelParams(d=d, delta=delta, eps=eps, model_kind="linear")


def test_mode_zero_spectrum():
    sp = mode_spectrum(linear_params(), 0)
    assert sp.Omega == 2.0
    assert sp.w_plus == 0.0
    assert sp.w_minus == -4.0
    assert sp.slope == 0.5


def test_mode_spectrum_worked_example():
    sp = mode_spectrum(linear_params(eps=0.1, delta=0.1, d=1.0), 2)
    assert abs(sp.Omega - np.sqrt(4.0016)) < 1e-12
    assert abs(sp.slope - 2.0 / (sp.Omega + 0.04 + 2.0)) < 1e-15
    assert abs(sp.slope - 0.495000) < 5e-7


def test_slope_is_half_without_cross_diffusion():
    p = linear_params(delta=0.0)
    for k in range(6):
        assert mode_spectrum(p, k).slope == 0.5


def test_spectrum_rate_ordering_and_slope_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = linear_params(
            eps=10 ** rng.uniform(-3, -0.5),
            delta=10 ** rng.uniform(-4, -0.5),
            d=rng.uniform(0.5, 2.0),
        )
        k = rng.integers(0, 9)
        sp = mode_spectrum(p, int(k))
        assert sp.fast_rate < sp.slow_rate <= 0.0
        assert 0.0 < sp.slope <= 0.5
        if p.eps * p.delta * sp.mu > 0:
            assert sp.slope < 0.5


def test_asymptotic_slow_rate_expansion():
    # |exact - asymptotic| = O(eps^3) at fixed delta, k
    errs = []
    for eps in (1e-2, 1e-3):
        sp = mode_spectrum(linear_params(eps=eps, delta=0.5), 2)
        errs.append(abs(sp.slow_rate - sp.asymptotic_slow_rate))
    assert errs[1] < errs[0] * 1e-2  # drops by ~eps^3 ratio = 1e-3, with slack


def test_closed_form_identity_at_t_zero():
    p = linear_params()
    u, v, vl = closed_form_solution(0.7, -1.3, p, 3, 0.0)
    assert abs(u - 0.7) < 1e-14 and abs(v + 1.3) < 1e-14 and abs(vl + 1.3) < 1e-14


def test_closed_form_requires_linear_kind():
    p = ModelParams(d=1.0, delta=0.0, eps=0.1, kappa=1.0)
    with pytest.raises(ConfigurationError):
        closed_form_solution(1.0, 1.0, p, 1, 0.5)


def test_on_manifold_ratio_is_preserved():
    p = linear_params(eps=0.05, delta=0.05)
    t = np.linspace(0.0, 2.0, 200)
    for k in (1, 3, 5):
        sp = mode_spectrum(p, k)
        u, v, _ = closed_form_solution(sp.slope * 2.0, 2.0, p, k, t)
        assert np.max(np.abs(u / v - sp.slope)) < 1e-12


def test_closed_form_matches_simulation():
    g = build_grid(np.pi, 16)
    p = linear_params(eps=0.1, delta=0.05)
    rng = np.random.default_rng(3)
    u0 = rng.standard_normal(g.N) * np.exp(-0.2 * np.arange(g.N))
    v0 = rng.standard_normal(g.N) * np.exp(-0.2 * np.arange(g.N))
    s0 = FastSlowState(SpectralField(g, u0), SpectralField(g, v0), 0.0)
    traj = simulate(s0, p, T=1.0, dt=0.005, sample_every=10**9)
    end = traj.final()
    for k in range(1, 9):
        ue, ve, _ = closed_form_solution(u0[k], v0[k], p, k, 1.0)
        assert abs(end.u.coeffs[k] - ue) < 1e-10
        assert abs(end.v.coeffs[k] - ve) < 1e-10


def test_propagator_eigenvalues_cross_check_random_draws():
    g = build_grid(np.pi, 16)
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = linear_params(
            eps=10 ** rng.uniform(-3, -0.5),
            delta=10 ** rng.uniform(-4, -0.5),
            d=rng.uniform(0.5, 2.0),
        )
        prop = linear_propagator(p, g, 0.01)
        k = int(rng.integers(0, g.N))
        ev = np.sort(np.linalg.eigvals(prop.M[:, :, k]).real)
        sp = mode_spectrum(p, k)
        expected = np.sort([sp.fast_rate, sp.slow_rate])
        assert np.max(np.abs(ev - expected)) < 1e-12 * max(1.0, np.max(np.abs(expected)))


def test_slope_monotone_in_coupling():
    # slope increases to 1/2 from below as eps delta mu decreases
    slopes = [
        mode_spectrum(linear_params(eps=eps, delta=0.2), 3).slope
        for eps in (0.2, 0.1, 0.05, 0.01, 0.001)
    ]
    assert all(a < b for a, b in zip(slopes, slopes[1:]))
    assert slopes[-1] < 0.5


def test_invariance_and_distance_report():
    p = linear_params(eps=0.1, delta=0.1)
    reports = invariance_and_distance(p, modes=[1, 2, 3], T=1.0)
    r2 = reports[1]
    assert r2.k == 2
    assert r2.invariance_defect <= 1e-10
    assert abs(r2.slope_gap - 0.005) < 1e-4
    assert r2.slope_gap <= r2.slope_gap_bound
    assert abs(r2.slope_gap_bound - 0.01) < 1e-15  # eps delta k^2 / 4
    for r in reports:
        assert r.rate_rel_error <= 0.05


def test_invariance_zero_data_trivial():
    p = linear_params()
    u, v, _ = closed_form_solution(0.0, 0.0, p, 2, np.linspace(0, 1, 50))
    assert np.max(np.abs(u)) == 0.0 and np.max(np.abs(v)) == 0.0
