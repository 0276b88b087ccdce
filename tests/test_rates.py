import dataclasses
import math

import numpy as np
import pytest

from fastslow import (
    FastSlowState,
    ModelParams,
    SpectralField,
    Trajectory,
    build_grid,
    closed_form_solution,
    cosine_transform,
    convergence_study,
    critical_map_u_of_v,
    simulate,
    solve_limit_system,
    trajectory_error_norms,
)
from fastslow.errors import ConfigurationError, ShapeError
from fastslow.rates import LAYER_SKIP_FACTOR, fit_order


def make_traj(grid, times, u_vals, v_vals):
    coeffs = np.array(
        [
            [cosine_transform(grid, u), cosine_transform(grid, v)]
            for u, v in zip(u_vals, v_vals)
        ]
    )
    return Trajectory(grid, np.asarray(times), coeffs)


def test_identical_trajectories_zero_error():
    g = build_grid(np.pi, 16)
    times = np.linspace(0, 1, 5)
    rng = np.random.default_rng(0)
    u = [rng.standard_normal(16) for _ in times]
    v = [rng.standard_normal(16) for _ in times]
    ta = make_traj(g, times, u, v)
    tb = make_traj(g, times, u, v)
    norms = trajectory_error_norms(ta, tb)
    assert norms.E_LinfL2 == 0.0 and norms.E_L2H1 == 0.0 and norms.E_LinfH2 == 0.0


def test_constant_offset_error():
    # constant trajectories differing by c in both components: E_LinfL2 = 2 c sqrt(L)
    g = build_grid(np.pi, 16)
    times = np.linspace(0, 1, 5)
    c = 0.37
    base = [np.ones(16) for _ in times]
    off = [np.ones(16) + c for _ in times]
    norms = trajectory_error_norms(make_traj(g, times, off, off), make_traj(g, times, base, base))
    assert abs(norms.E_LinfL2 - 2 * c * math.sqrt(math.pi)) < 1e-12
    assert abs(norms.E_LinfH2 - 2 * c * math.sqrt(math.pi)) < 1e-12


def test_mismatched_sampling_rejected():
    g = build_grid(np.pi, 16)
    ta = make_traj(g, [0.0, 0.5], [np.zeros(16)] * 2, [np.zeros(16)] * 2)
    tb = make_traj(g, [0.0, 0.4], [np.zeros(16)] * 2, [np.zeros(16)] * 2)
    with pytest.raises(ShapeError):
        trajectory_error_norms(ta, tb)


def test_non_uniform_sample_times_rejected():
    # 93 steps with stride 7: the last sample interval is 2 steps, not 7, and
    # a Riemann sum with one dt would weight it wrongly
    g = build_grid(np.pi, 16)
    p = ModelParams(d=1.0, delta=0.001, eps=0.01, kappa=1e-3, a=1.0, b=1.0, c=1.0)
    v_in = SpectralField.from_values(g, 0.5 * (1.0 + np.cos(g.nodes)))
    u_in = critical_map_u_of_v(v_in, p.kappa)
    traj = simulate(FastSlowState(u_in, v_in, 0.0), p, T=0.37, dt=0.004, sample_every=7)
    limit = solve_limit_system(v_in, p, T=0.37, dt=0.004, sample_every=7)
    with pytest.raises(ShapeError):
        trajectory_error_norms(traj, limit)
    # the same run on whole strides (98 steps) is accepted
    traj = simulate(FastSlowState(u_in, v_in, 0.0), p, T=0.37, dt=0.37 / 98, sample_every=7)
    limit = solve_limit_system(v_in, p, T=0.37, dt=0.37 / 98, sample_every=7)
    assert trajectory_error_norms(traj, limit).E_L2H1 > 0.0


def test_error_norms_match_per_mode_closed_form_oracle():
    # linear kind: both trajectories and their error norms are available in
    # closed form per mode; the module must reproduce that oracle
    g = build_grid(np.pi, 16)
    p = ModelParams(d=1.0, delta=0.05, eps=0.05, model_kind="linear")
    rng = np.random.default_rng(1)
    u0 = rng.standard_normal(g.N) * np.exp(-0.5 * np.arange(g.N))
    v0 = rng.standard_normal(g.N) * np.exp(-0.5 * np.arange(g.N))
    times = np.linspace(0.0, 1.0, 21)
    dt = times[1] - times[0]

    w = np.full(g.N, g.L / 2.0)
    w[0] = g.L
    states_eps, states_lim = [], []
    l2 = np.zeros(len(times))
    h1s = np.zeros(len(times))
    h2 = np.zeros(len(times))
    for n, t in enumerate(times):
        ue = np.zeros(g.N)
        ve = np.zeros(g.N)
        ul = np.zeros(g.N)
        vl = np.zeros(g.N)
        for k in range(g.N):
            ue[k], ve[k], vl[k] = closed_form_solution(u0[k], v0[k], p, k, float(t))
            ul[k] = 0.5 * vl[k]
        states_eps.append((ue, ve))
        states_lim.append((ul, vl))
        for diff in (ue - ul, ve - vl):
            l2[n] += math.sqrt(np.sum(w * diff**2))
            h1s[n] += np.sum(w * (1 + g.mu) * diff**2)
            h2[n] += math.sqrt(np.sum(w * (1 + g.mu + g.mu**2) * diff**2))
    expected = (np.max(l2), math.sqrt(np.sum(dt * h1s)), np.max(h2))

    ta = Trajectory(g, times, np.array(states_eps))
    tb = Trajectory(g, times, np.array(states_lim))
    norms = trajectory_error_norms(ta, tb)
    assert abs(norms.E_LinfL2 - expected[0]) < 1e-10
    assert abs(norms.E_L2H1 - expected[1]) < 1e-10
    assert abs(norms.E_LinfH2 - expected[2]) < 1e-10


def test_norm_ordering_every_run():
    g = build_grid(np.pi, 32)
    p = ModelParams(d=1.0, delta=0.1, eps=0.1, model_kind="linear")
    v_in = SpectralField.from_values(g, 1.0 + 0.5 * np.cos(g.nodes))
    u_in = 0.5 * v_in
    rep = convergence_study(
        p, u_in, v_in, [3e-2, 1e-2], T=0.5, delta_rule={"type": "fixed", "value": 0.1}
    )
    for r in rep.runs:
        assert r.norms.E_LinfL2 <= r.norms.E_LinfH2 + 1e-15


def test_linear_study_first_order_in_eps_at_fixed_delta():
    # with delta fixed the leading error of the linear system is O(eps delta)
    g = build_grid(np.pi, 32)
    p = ModelParams(d=1.0, delta=0.1, eps=0.1, model_kind="linear")
    v_in = SpectralField.from_values(
        g, 1.0 + 0.5 * np.cos(g.nodes) + 0.2 * np.cos(2 * g.nodes)
    )
    u_in = 0.5 * v_in
    rep = convergence_study(
        p,
        u_in,
        v_in,
        [3e-2, 1e-2, 3e-3, 1e-3],
        T=1.0,
        delta_rule={"type": "fixed", "value": 0.1},
    )
    errors = [r.norms.E_LinfL2 for r in rep.runs]
    assert all(a > b for a, b in zip(errors, errors[1:]))  # strictly decreasing
    assert 0.9 <= rep.orders["E_LinfL2"] <= 1.1


def test_study_rejects_nondecreasing_eps():
    g = build_grid(np.pi, 16)
    p = ModelParams(d=1.0, delta=0.1, eps=0.1, model_kind="linear")
    v = SpectralField.zero(g)
    with pytest.raises(ConfigurationError):
        convergence_study(p, v, v, [1e-3, 1e-2], T=0.1)


@pytest.mark.parametrize(
    "options",
    [{"n_samples": 0}, {"n_samples": -5}, {"delta_rule": {"type": "fixed"}},
     {"delta_rule": {"type": "fixed", "value": None}}],
    ids=["n_samples=0", "n_samples=-5", "fixed-without-value", "fixed-value=None"],
)
def test_study_rejects_bad_options_before_any_run(monkeypatch, options):
    # no sample count below one, and a fixed delta rule needs its number;
    # both are found before the first member is integrated
    import fastslow.rates as rates

    def no_run(*args, **kwargs):
        raise AssertionError("a member ran")

    monkeypatch.setattr(rates, "_simulate_with_limit", no_run)
    g = build_grid(np.pi, 16)
    p = ModelParams(d=1.0, delta=0.1, eps=0.1, model_kind="linear")
    v = SpectralField.zero(g)
    with pytest.raises(ConfigurationError):
        convergence_study(p, v, v, [1e-1, 1e-2], T=0.1, **options)


def test_resolution_independence():
    # doubling N changes the reported errors by < 5%
    p0 = ModelParams(d=1.0, delta=0.0, eps=3e-3, kappa=1e-5, a=1.0, b=1.0, c=1.0)
    results = []
    for n in (64, 128):
        g = build_grid(math.pi, n)
        v_in = SpectralField.from_values(
            g, 0.35 * (1.0 + 0.6 * np.cos(g.nodes) + 0.2 * np.cos(2 * g.nodes))
        )
        u_in = critical_map_u_of_v(v_in, p0.kappa)
        # the step count is rounded up to whole sampling strides, so that the
        # sample times are uniform, as the error norms require
        dt = 0.1 / (5 * math.ceil(0.1 / (0.5 * p0.eps) / 5))
        traj = simulate(FastSlowState(u_in, v_in, 0.0), p0, T=0.1, dt=dt, sample_every=5)
        limit = solve_limit_system(v_in, p0, T=0.1, dt=traj.times[1] / 5, sample_every=5)
        norms = trajectory_error_norms(traj, limit)
        results.append(norms.E_LinfL2)
    assert abs(results[0] - results[1]) < 0.05 * results[1]


def test_plateau_flag_with_fixed_initial_layer():
    # fixed eps_in dominates: E stops decreasing and the report flags it
    g = build_grid(math.pi, 32)
    kappa = 1e-5
    p = ModelParams(d=1.0, delta=0.0, eps=1e-2, kappa=kappa, a=1.0, b=1.0, c=1.0)
    x = g.nodes
    v_in = SpectralField.from_values(g, 0.5 * (1.0 + np.cos(x)))
    bump = SpectralField.from_values(g, 0.05 * (1.0 + np.cos(x)))
    u_in = critical_map_u_of_v(v_in, kappa) + bump
    rep = convergence_study(
        p, u_in, v_in, [1e-2, 3e-3, 1e-3], T=0.2, delta_rule={"type": "zero"}
    )
    errors = [r.norms.E_LinfL2 for r in rep.runs]
    assert rep.plateau
    assert max(errors) / min(errors) < 3.0  # no eps-proportional decay


@pytest.mark.parametrize("kind", ["nonlinear", "linear"])
@pytest.mark.parametrize("n", [8, 64])
def test_study_members_equal_separate_solver_runs(kind, n):
    # each member steps both systems in one loop; its trajectories and norms
    # must be exactly those of the two public solvers run apart with the same
    # dt and stride
    from fastslow.reduction import _simulate_with_limit

    g = build_grid(math.pi, n)
    if kind == "linear":
        p = ModelParams(d=1.0, delta=0.1, eps=0.1, model_kind="linear")
    else:
        p = ModelParams(d=1.0, delta=0.0, eps=1e-2, kappa=1e-3, a=1.0, b=1.0, c=1.0)
    v_in = SpectralField.from_values(g, 0.5 * (1.0 + 0.6 * np.cos(g.nodes)))
    u_in = critical_map_u_of_v(v_in, p.kappa) if kind == "nonlinear" else 0.5 * v_in
    eps_list, T, n_samples = [1e-2, 3e-3], 0.1, 20
    rep = convergence_study(
        p, u_in, v_in, eps_list, T=T, delta_rule={"type": "fixed", "value": 1e-3},
        n_samples=n_samples,
    )
    for run, eps in zip(rep.runs, eps_list):
        q = dataclasses.replace(p, eps=eps, delta=1e-3)
        dt = 0.5 * eps if kind == "nonlinear" else T / 2000.0
        n_steps = math.ceil(T / dt - 1e-9)
        stride = max(1, n_steps // n_samples)
        dt = T / (stride * math.ceil(n_steps / stride))
        traj = simulate(FastSlowState(u_in, v_in, 0.0), q, T, dt=dt, sample_every=stride)
        limit = solve_limit_system(v_in, q, T, dt=dt, sample_every=stride)
        assert run.failure is None
        assert run.norms == trajectory_error_norms(traj, limit, t_skip=LAYER_SKIP_FACTOR * eps)
        paired = _simulate_with_limit(FastSlowState(u_in, v_in, 0.0), q, T, dt, stride)
        for together, apart in zip(paired, (traj, limit)):
            assert np.array_equal(together.times, apart.times)
            assert np.array_equal(together.coeffs, apart.coeffs)
            assert np.array_equal(together.u1_linf, apart.u1_linf)
            assert np.array_equal(together.u2_linf, apart.u2_linf)


def test_diverging_member_recorded_and_left_out_of_the_fit():
    # c = 0 removes the Lotka-Volterra saturation: at a = 40 the smallest eps
    # blows up before T while the other two members finish
    g = build_grid(math.pi, 16)
    p = ModelParams(d=1.0, delta=0.0, eps=0.1, kappa=1.0, a=40.0, b=0.0, c=0.0)
    v_in = SpectralField.from_values(g, np.ones(16))
    u_in = SpectralField.from_values(g, 0.5 * np.ones(16))
    rep = convergence_study(p, u_in, v_in, [0.1, 0.03, 0.01], T=0.1, delta_rule={"type": "zero"})
    ok, bad = rep.runs[:2], rep.runs[2]
    assert bad.norms is None
    assert bad.failure.startswith("state diverged at t=")
    assert all(r.norms is not None and r.failure is None for r in ok)
    order, _ = fit_order([r.eps for r in ok], [r.norms.E_LinfL2 for r in ok])
    assert rep.orders["E_LinfL2"] == order
