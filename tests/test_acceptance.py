"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned in the assertion itself.
"""

import math
import time

import numpy as np
from scipy.optimize import brentq

from fastslow import (
    FastSlowState,
    ModelParams,
    SpectralField,
    build_grid,
    closed_form_solution,
    convergence_study,
    critical_map_u_of_v,
    initial_layer,
    invariance_and_distance,
    lipschitz_estimates,
    lyapunov_perron_fixed_point,
    mode_spectrum,
    nonlinear_eval,
    sharp_embedding_constant_numeric,
    simulate,
    sobolev_norm,
    solve_limit_system,
    splitting_parameters,
    theoretical_constants,
    validate_assumptions,
)
from fastslow.config import preset_fields


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {status}  {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def linear_params(eps, delta, d=1.0):
    return ModelParams(d=d, delta=delta, eps=eps, model_kind="linear")


def test_criterion_01_linear_exactness():
    start = time.perf_counter()
    grid = build_grid(math.pi, 64)
    rng = np.random.default_rng(0)
    n_modes = 33  # modes 0..32
    worst = 0.0
    for eps in (0.1, 0.01):
        for delta in (0.0, eps, eps**1.5):
            p = linear_params(eps, delta)
            u0 = np.zeros(grid.N)
            v0 = np.zeros(grid.N)
            u0[:n_modes] = rng.standard_normal(n_modes)
            v0[:n_modes] = rng.standard_normal(n_modes)
            s0 = FastSlowState(SpectralField(grid, u0), SpectralField(grid, v0), 0.0)
            end = simulate(s0, p, T=1.0, dt=0.01, sample_every=10**9).final()
            for k in range(grid.N):
                ue, ve, _ = closed_form_solution(u0[k], v0[k], p, k, 1.0)
                worst = max(worst, abs(end.u.coeffs[k] - ue), abs(end.v.coeffs[k] - ve))
    wall = time.perf_counter() - start
    report(
        1,
        "linear-exactness",
        worst <= 1e-10 and wall < 10.0,
        f"max mode discrepancy {worst:.2e}, wall {wall:.1f}s",
    )


def test_criterion_02_linear_manifold_invariance():
    p = linear_params(eps=0.01, delta=0.01)
    grid = build_grid(math.pi, 16)
    slopes = np.array([mode_spectrum(p, k).slope for k in range(grid.N)])
    v0 = np.zeros(grid.N)
    v0[:9] = 1.0
    u0 = slopes * v0
    s0 = FastSlowState(SpectralField(grid, u0), SpectralField(grid, v0), 0.0)
    traj = simulate(s0, p, T=1.0, dt=0.005, sample_every=10)
    worst = 0.0
    for u, v in traj.coeffs:
        for k in range(9):
            vk, uk = v[k], u[k]
            if abs(vk) >= 1e-8:
                worst = max(worst, abs(uk / vk - slopes[k]))
            else:
                worst = max(worst, abs(uk - slopes[k] * vk))
    reports = invariance_and_distance(p, modes=range(1, 9), T=1.0)
    worst_rate = max(r.rate_rel_error for r in reports)
    report(
        2,
        "linear-manifold-invariance",
        worst <= 1e-9 and worst_rate <= 0.05,
        f"ratio defect {worst:.2e}, worst decay-rate mismatch {worst_rate:.2%}",
    )


def test_criterion_03_distance_to_critical_manifold():
    count = 0
    worst_margin = -1.0
    for eps in np.logspace(-3, -1, 5):
        for delta in np.logspace(-3, -1, 5):
            for k in (1, 2, 3, 4):
                x = eps * delta * k**2
                if x > 1.0:
                    continue
                sp = mode_spectrum(linear_params(eps, delta), k)
                gap = abs(sp.slope - 0.5)
                assert gap <= x / 4.0
                worst_margin = max(worst_margin, gap / (x / 4.0))
                count += 1
    report(
        3,
        "distance-to-critical",
        count >= 100,
        f"{count} sweep points, worst gap/bound {worst_margin:.3f}",
    )


def test_criterion_04_lyapunov_perron_oracle():
    start = time.perf_counter()
    p = linear_params(eps=0.01, delta=0.001)
    split = splitting_parameters(10.0)
    gap_rep = validate_assumptions(p, split, lipschitz_estimates(p, 1.0))
    assert gap_rep.passes
    v0 = np.zeros(split.k0)
    v0[1] = 1.0
    pt = lyapunov_perron_fixed_point(
        v0, p, split, n_t=2048, tol=1e-9, gap_report=gap_rep
    )
    slope = mode_spectrum(p, 1).slope
    err = abs(pt.u_coeffs[1] - slope)
    wall = time.perf_counter() - start
    report(
        4,
        "lyapunov-perron-oracle",
        pt.converged and err <= 1e-6 and pt.contraction <= gap_rep.total + 0.1 and wall < 60.0,
        f"slope error {err:.2e}, contraction {pt.contraction:.3f} "
        f"(validated {gap_rep.total:.3f}), wall {wall:.1f}s",
    )


def test_criterion_05_nonlinear_convergence_rate():
    start = time.perf_counter()
    grid = build_grid(math.pi, 128)
    x = grid.nodes
    v_in = SpectralField.from_values(
        grid, 0.35 * (1.0 + 0.6 * np.cos(x) + 0.2 * np.cos(2 * x))
    )
    probe = ModelParams(d=1.0, delta=0.0, eps=1e-2, kappa=1.0, a=1.0, b=1.0, c=1.0)
    M = v_in.sobolev_norm(2)
    consts = theoretical_constants(probe, M=M)
    kappa = 0.8 * consts.kappa_bound
    p = ModelParams(d=1.0, delta=0.0, eps=1e-2, kappa=kappa, a=1.0, b=1.0, c=1.0)
    assert theoretical_constants(p, M=M).kappa_ok
    u_in = critical_map_u_of_v(v_in, kappa)
    rep = convergence_study(
        p,
        u_in,
        v_in,
        [1e-2, 3e-3, 1e-3, 3e-4],
        T=0.5,
        delta_rule={"type": "power", "p": 1.5},
    )
    wall = time.perf_counter() - start
    o_l2 = rep.orders["E_LinfL2"]
    o_h1 = rep.orders["E_L2H1"]
    o_h2p = rep.orders["E_LinfH2_postlayer"]
    ok = (
        0.8 <= o_l2 <= 1.3
        and 0.8 <= o_h1 <= 1.3
        and o_h2p >= 0.8
        and wall < 300.0
    )
    report(
        5,
        "nonlinear-convergence-rate",
        ok,
        f"orders LinfL2 {o_l2:.2f}, L2H1 {o_h1:.2f}, post-layer LinfH2 {o_h2p:.2f}, "
        f"wall {wall:.0f}s",
    )


def test_criterion_06_initial_layer_plateau():
    grid = build_grid(math.pi, 64)
    x = grid.nodes
    kappa = 1e-5
    p = ModelParams(d=1.0, delta=0.0, eps=1e-2, kappa=kappa, a=1.0, b=1.0, c=1.0)
    v_in = SpectralField.from_values(grid, 0.5 * (1.0 + np.cos(x)))
    u_base = critical_map_u_of_v(v_in, kappa)
    bump = SpectralField.from_values(grid, 1.0 + np.cos(x))

    def eps_in_of(c):
        u = u_base + c * bump
        return initial_layer(u, v_in, p).eps_in - 0.1

    c_star = brentq(eps_in_of, 0.0, 0.2, xtol=1e-14)
    u_in = u_base + c_star * bump
    eps_in = initial_layer(u_in, v_in, p).eps_in
    assert abs(eps_in - 0.1) < 1e-10
    rep = convergence_study(
        p, u_in, v_in, [1e-2, 3e-3, 1e-3], T=0.2, delta_rule={"type": "zero"}
    )
    errors = [r.norms.E_LinfL2 for r in rep.runs]
    within = all(eps_in / 10.0 <= e <= eps_in * 10.0 for e in errors)
    report(
        6,
        "initial-layer-plateau",
        within and rep.plateau,
        f"eps_in {eps_in:.3f}, E_LinfL2 {['%.3f' % e for e in errors]}, plateau {rep.plateau}",
    )


def test_criterion_07_uniform_bounds():
    grid = build_grid(math.pi, 64)
    p = ModelParams(d=1.0, delta=0.01, eps=0.05, kappa=1.0, a=1.0, b=1.0, c=1.0)
    worst_slack = -math.inf
    limit_ok = True
    for preset in ("cosine", "two-mode", "flat-ripple"):
        u_vals, v_vals = preset_fields(preset, grid, 1.0)
        u_in = SpectralField.from_values(grid, u_vals)
        v_in = SpectralField.from_values(grid, v_vals)
        traj = simulate(FastSlowState(u_in, v_in, 0.0), p, T=1.0, dt=0.025, sample_every=4)
        n1 = np.max(np.abs(u_vals))
        n2 = np.max(np.abs(v_vals - u_vals))
        for j, observed in ((1, traj.u1_linf), (2, traj.u2_linf)):
            bound = (
                n1 ** (1.0 / j)
                + n2 ** (2.0 / j)
                + (p.a / (p.b + p.c)) ** (1.0 / j)
                + (2 * p.b / p.c) ** (1.0 / j)
                + (2 * p.a / p.c) ** (2.0 / j)
            )
            worst_slack = max(worst_slack, float(np.max(observed) - bound))
        limit = solve_limit_system(v_in, p, T=1.0, dt=0.005, sample_every=20)
        v_bound = np.max(v_vals) + p.a / p.c
        for v in limit.coeffs[:, 1]:
            if np.max(SpectralField(grid, v).values()) > v_bound + 1e-8:
                limit_ok = False
    report(
        7,
        "uniform-bounds",
        worst_slack <= 1e-8 and limit_ok,
        f"worst sup-bound excess {worst_slack:.2e}, limit sup bound ok {limit_ok}",
    )


def test_criterion_08_mode_zero_conservation():
    grid = build_grid(math.pi, 64)
    worst = 0.0
    for delta in (0.0, 0.01):
        p = ModelParams(d=1.0, delta=delta, eps=0.05, kappa=1.0, a=0.0, b=0.0, c=0.0)
        x = grid.nodes
        s0 = FastSlowState(
            SpectralField.from_values(grid, 0.3 * (1 + np.cos(x))),
            SpectralField.from_values(grid, 0.8 * (1 + 0.5 * np.cos(x))),
            0.0,
        )
        traj = simulate(s0, p, T=1.0, dt=0.025, sample_every=4)
        m0 = traj.coeffs[:, 1, 0]
        worst = max(worst, float(np.max(np.abs(m0 - m0[0]))))
    report(8, "mode-zero-conservation", worst <= 1e-10, f"max drift {worst:.2e}")


def test_criterion_09_gap_checker_worked_cases():
    def case(eps, delta):
        p = linear_params(eps, delta)
        split = splitting_parameters(26.0)
        return validate_assumptions(p, split, (0.5, 0.0, 0.0))

    r1 = case(0.001, 0.0)
    r2 = case(0.01, 0.0)
    r3 = case(0.001, 0.001**1.5)
    exact = (
        abs(r1.term1 - 0.5 / 0.9305) < 1e-12
        and r1.term2 == 0.0
        and r1.passes
        and abs(r2.term1 - 0.5 / 0.305) < 1e-12
        and not r2.passes
        and abs(r3.term2 - 2.0 * (0.001**1.5 * 2.0 * 0.5) / (0.001 * 3.0)) < 1e-12
        and r3.passes
    )
    totals = [case(0.001, d).total for d in np.linspace(0.0, 0.02, 9)]
    monotone = all(a < b for a, b in zip(totals, totals[1:]))
    flipped = not case(0.001, 0.02).passes
    report(
        9,
        "gap-checker",
        exact and monotone and flipped,
        f"term1 {r1.term1:.12f}, monotone in delta {monotone}",
    )


def test_criterion_10_spectral_infrastructure():
    grid = build_grid(math.pi, 64)
    rng = np.random.default_rng(1)
    # transform round trip
    rt = 0.0
    for _ in range(100):
        w = SpectralField(grid, rng.standard_normal(grid.N))
        back = SpectralField.from_values(grid, w.values())
        rt = max(rt, float(np.max(np.abs(back.coeffs - w.coeffs))))
    # Parseval for band-limited fields
    pv = 0.0
    for _ in range(25):
        c = np.zeros(grid.N)
        c[: (2 * grid.N) // 3] = rng.standard_normal((2 * grid.N) // 3)
        w = SpectralField(grid, c)
        quad = (grid.L / grid.N) * np.sum(w.values() ** 2)
        pv = max(pv, abs(quad - sobolev_norm(w, 0) ** 2) / max(1.0, quad))
    # dealiased squares of basis modes
    dz = 0.0
    for k in range(1, grid.N // 3 + 1):
        w = SpectralField.from_function(grid, lambda x, k=k: np.cos(k * x))
        sq = nonlinear_eval([w], lambda u: u * u)
        expected = np.zeros(grid.N)
        expected[0] = 0.5
        expected[2 * k] = 0.5
        dz = max(dz, float(np.max(np.abs(sq.coeffs - expected))))
    # sharp embedding constant
    exact = math.sqrt(1.0 / math.tanh(math.pi))
    numeric = sharp_embedding_constant_numeric(math.pi, n_trials=2000, rng=rng)
    c_rel = abs(numeric - exact) / exact
    report(
        10,
        "spectral-infrastructure",
        rt <= 1e-12 and pv <= 1e-11 and dz <= 1e-12 and c_rel < 0.01,
        f"roundtrip {rt:.1e}, parseval {pv:.1e}, dealias {dz:.1e}, C* rel {c_rel:.2%}",
    )


def test_criterion_11_limit_system_logistic_oracle():
    grid = build_grid(math.pi, 8)
    p = ModelParams(d=1.0, delta=0.0, eps=0.01, kappa=1.0, a=1.0, b=0.0, c=1.0)
    c0 = 0.3
    v0 = SpectralField.from_values(grid, np.full(grid.N, c0))
    traj = solve_limit_system(v0, p, T=1.0, dt=1e-4, sample_every=10**9)
    exact = c0 * math.e / (1.0 - c0 + c0 * math.e)
    err = abs(traj.final().v.values()[0] - exact)
    report(11, "limit-logistic-oracle", err <= 1e-8, f"|v(1) - logistic| = {err:.2e}")
