import math

import numpy as np
import pytest

from fastslow import (
    ModelParams,
    SpectralField,
    build_grid,
    critical_map_u_of_v,
    initial_layer,
    sharp_embedding_constant_numeric,
    solve_limit_system,
    theoretical_constants,
)
from fastslow.errors import ConfigurationError, DivergenceError, DomainError

# the model of the initial-layer tests: only its kind and kappa = 1 matter
NONLINEAR = ModelParams(d=1.0, delta=0.0, eps=1e-3, kappa=1.0)


def test_critical_map_scalar_roots():
    assert abs(critical_map_u_of_v(2.0, 1.0) - 1.0) < 1e-14   # -1 + (2-1)^2 = 0
    assert critical_map_u_of_v(0.0, 1.0) == 0.0
    assert abs(critical_map_u_of_v(3.0, 0.25) - 1.0) < 1e-14  # -1 + (3-1)^2/4 = 0


def test_critical_map_residual_on_random_fields():
    # smooth band-limited v >= 0: the square-root map resolves spectrally
    g = build_grid(np.pi, 64)
    rng = np.random.default_rng(0)
    x = g.nodes
    for kappa in (0.3, 1.0):
        for _ in range(10):
            vals = 1.2 * np.ones(g.N)
            for k in range(1, 9):
                vals += rng.uniform(-0.5, 0.5) / k**2 * np.cos(k * x)
            assert np.min(vals) > 0
            v = SpectralField.from_values(g, vals)
            u = critical_map_u_of_v(v, kappa)
            uv, vv = u.values(), v.values()
            residual = -uv + kappa * (vv - uv) ** 2
            assert np.max(np.abs(residual)) < 1e-12
            assert np.all(uv >= -1e-12) and np.all(uv <= vv + 1e-12)


def test_critical_map_monotone():
    rng = np.random.default_rng(1)
    v1 = rng.uniform(0.0, 3.0, 200)
    v2 = v1 + rng.uniform(0.0, 2.0, 200)
    u1 = critical_map_u_of_v(v1, 0.8)
    u2 = critical_map_u_of_v(v2, 0.8)
    assert np.all(u1 <= u2 + 1e-14)


def test_critical_map_rejects_negative():
    with pytest.raises(DomainError):
        critical_map_u_of_v(-0.5, 1.0)


def test_initial_layer_well_prepared():
    g = build_grid(np.pi, 32)
    v = SpectralField.from_values(g, 1.0 + 0.4 * np.cos(g.nodes))
    u = critical_map_u_of_v(v, 1.0)
    rep = initial_layer(u, v, NONLINEAR)
    assert rep.eps_in <= 1e-10


def test_initial_layer_constant_one():
    g = build_grid(np.pi, 32)
    u = SpectralField.zero(g)
    v = SpectralField.from_values(g, np.ones(g.N))
    rep = initial_layer(u, v, NONLINEAR)
    # residual is the constant 1; its H2 norm is sqrt(pi)
    assert abs(rep.eps_in - math.sqrt(math.pi)) < 1e-12


def test_initial_layer_constant_root():
    g = build_grid(np.pi, 32)
    u = SpectralField.from_values(g, np.ones(g.N))
    v = SpectralField.from_values(g, 2.0 * np.ones(g.N))
    rep = initial_layer(u, v, NONLINEAR)
    assert rep.eps_in <= 1e-10


def test_initial_layer_ordering_violation():
    g = build_grid(np.pi, 32)
    u = SpectralField.from_values(g, np.ones(g.N))
    v = SpectralField.zero(g)
    with pytest.raises(DomainError):
        initial_layer(u, v, NONLINEAR)


def test_initial_layer_ratio_bounded():
    # ||u_in - u(0)||_H2 / eps_in stays bounded across random perturbed data
    g = build_grid(np.pi, 32)
    rng = np.random.default_rng(2)
    x = g.nodes
    for _ in range(50):
        amp = rng.uniform(0.1, 0.5)
        v = SpectralField.from_values(g, amp * (1.2 + np.cos(x) * rng.uniform(0, 0.8)))
        u0 = critical_map_u_of_v(v, 1.0)
        bump = rng.uniform(0.0, 0.2) * (1.0 + np.cos(2 * x))
        u = SpectralField.from_values(g, np.minimum(u0.values() + bump, v.values()))
        rep = initial_layer(u, v, NONLINEAR)
        if rep.eps_in > 1e-8:
            assert rep.deviation_ratio <= 10.0


def test_constants_report_closed_forms():
    p = ModelParams(d=1.0, delta=0.0, eps=1e-3, kappa=1.0, a=1.0, b=1.0, c=1.0)
    rep = theoretical_constants(p, M=1.0)
    assert abs(rep.C_star - math.sqrt(1.0 / math.tanh(math.pi))) < 1e-14
    assert abs(rep.lambda_1 - 1.0) < 1e-14
    assert abs(rep.K0 - (rep.C_star + 1.0)) < 1e-14  # C_star * M + a/c
    assert rep.K_M > 0 and math.isfinite(rep.K_M)
    assert rep.kappa_bound == pytest.approx(1.0 / (12 * rep.C_star * rep.K_M))
    assert not rep.kappa_ok  # kappa = 1 is far above the bound
    ok = theoretical_constants(
        ModelParams(d=1.0, delta=0.0, eps=1e-3, kappa=0.5 * rep.kappa_bound), M=1.0
    )
    assert ok.kappa_ok


def test_constants_rejects_bad_radius():
    p = ModelParams(d=1.0, delta=0.0, eps=1e-3)
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ConfigurationError):
            theoretical_constants(p, M=bad)


def test_sharp_embedding_constant_matches_closed_form():
    exact = math.sqrt(1.0 / math.tanh(math.pi))
    numeric = sharp_embedding_constant_numeric(math.pi, n_trials=500)
    assert abs(numeric - exact) / exact < 0.01
    assert numeric <= exact * (1 + 1e-9)  # the numeric value is a lower bound


def test_limit_system_zero_stays_zero():
    g = build_grid(np.pi, 16)
    p = ModelParams(d=1.0, delta=0.0, eps=0.01, kappa=1.0, a=1.0, b=1.0, c=1.0)
    traj = solve_limit_system(SpectralField.zero(g), p, T=0.5, dt=0.01)
    for v in traj.coeffs[:, 1]:
        assert np.max(np.abs(v)) < 1e-14


def test_limit_system_logistic_oracle():
    # b = 0, a = c = 1, spatially constant: v' = (1 - v) v, logistic
    g = build_grid(np.pi, 8)
    p = ModelParams(d=1.0, delta=0.0, eps=0.01, kappa=1.0, a=1.0, b=0.0, c=1.0)
    c0 = 0.3
    v0 = SpectralField.from_values(g, np.full(8, c0))
    traj = solve_limit_system(v0, p, T=1.0, dt=1e-4, sample_every=10**9)
    exact = c0 * math.e / (1.0 - c0 + c0 * math.e)
    assert abs(traj.final().v.values()[0] - exact) < 1e-8


def test_limit_system_default_step_is_t_over_1000():
    g = build_grid(np.pi, 16)
    p = ModelParams(d=1.0, delta=0.0, eps=0.01, kappa=1.0, a=1.0, b=1.0, c=1.0)
    v0 = SpectralField.from_values(g, 0.5 * (1.0 + np.cos(g.nodes)))
    default = solve_limit_system(v0, p, 0.3, sample_every=100)
    given = solve_limit_system(v0, p, 0.3, 0.3 / 1000.0, 100)
    assert len(default.times) == 11
    assert np.array_equal(default.times, given.times)
    assert np.array_equal(default.coeffs, given.coeffs)


def test_limit_system_sup_bound():
    # 0 <= v <= ||v_in||_inf + a/c along the trajectory
    g = build_grid(np.pi, 32)
    p = ModelParams(d=1.0, delta=0.0, eps=0.01, kappa=1.0, a=1.0, b=1.0, c=1.0)
    v0 = SpectralField.from_values(g, 0.5 * (1.0 + np.cos(g.nodes)))
    bound = np.max(v0.values()) + p.a / p.c
    traj = solve_limit_system(v0, p, T=2.0, dt=0.005, sample_every=20)
    for v in traj.coeffs[:, 1]:
        vals = SpectralField(g, v).values()
        assert np.max(vals) <= bound + 1e-8
        assert np.min(vals) >= -1e-8


def test_limit_system_divergence_detected():
    # c = 0 removes the saturation: v' = a v grows until the blow-up guard fires
    g = build_grid(np.pi, 16)
    p = ModelParams(d=1.0, delta=0.0, eps=0.01, kappa=1.0, a=30.0, b=0.0, c=0.0)
    v0 = SpectralField.from_values(g, np.ones(16))
    with pytest.raises(DivergenceError):
        solve_limit_system(v0, p, T=1.0, dt=0.001)


def test_limit_system_warns_on_inadmissible_kappa():
    g = build_grid(np.pi, 16)
    p = ModelParams(d=1.0, delta=0.0, eps=0.01, kappa=1.0, a=1.0, b=1.0, c=1.0)
    rep = theoretical_constants(p, M=1.0)
    v0 = SpectralField.from_values(g, 0.2 * np.ones(16))
    with pytest.warns(UserWarning):
        solve_limit_system(v0, p, T=0.01, dt=0.001, constants=rep)
