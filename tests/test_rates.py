import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fastslow import (
    FastSlowState,
    ModelParams,
    SpectralField,
    Trajectory,
    build_grid,
    closed_form_solution,
    convergence_study,
    critical_map_u_of_v,
    initial_layer,
    simulate,
    solve_limit_system,
    trajectory_error_norms,
)
import fastslow
from fastslow import _parallel
from fastslow.errors import ConfigurationError, DomainError, ShapeError
from fastslow.rates import LAYER_SKIP_FACTOR, fit_order


def make_traj(grid, times, u_vals, v_vals):
    coeffs = np.array(
        [
            [SpectralField.from_values(grid, w).coeffs for w in (u, v)]
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


@pytest.mark.parametrize("n_samples", [0, 1])
def test_fewer_than_two_samples_rejected(n_samples):
    g = build_grid(np.pi, 16)
    times = np.linspace(0.0, 1.0, n_samples)
    traj = Trajectory(g, times, np.zeros((n_samples, 2, 16)))
    with pytest.raises(ShapeError, match=r"^need at least two samples$"):
        trajectory_error_norms(traj, traj)


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
    "kind, options, error",
    [
        pytest.param("linear", {"n_samples": 0}, ConfigurationError, id="n_samples=0"),
        pytest.param("linear", {"n_samples": -5}, ConfigurationError, id="n_samples=-5"),
        pytest.param("linear", {"delta_rule": {"type": "fixed"}}, ConfigurationError,
                     id="fixed-without-value"),
        pytest.param("linear", {"delta_rule": {"type": "fixed", "value": None}},
                     ConfigurationError, id="fixed-value=None"),
        pytest.param("linear", {"dt_factor": 0.0}, ConfigurationError, id="dt_factor=0"),
        pytest.param("linear", {"dt_factor": -1.0}, ConfigurationError, id="dt_factor=-1"),
        pytest.param("linear", {"dt_factor": math.nan}, ConfigurationError, id="dt_factor=nan"),
        pytest.param("nonlinear", {"dt_factor": 0.6}, ConfigurationError,
                     id="nonlinear-dt_factor=0.6"),
        pytest.param("linear", {"eps_list": [1e-1, 0.0]}, ConfigurationError, id="eps=0"),
        pytest.param("linear", {"eps_list": [1e-1, -1e-2]}, ConfigurationError, id="eps<0"),
        pytest.param("linear", {"T": math.nan}, ConfigurationError, id="T=nan"),
        pytest.param("nonlinear", {"u": -0.1, "v": 0.5}, DomainError, id="u_in<0"),
        pytest.param("nonlinear", {"u": 0.6, "v": 0.5}, DomainError, id="u_in>v_in"),
        # u_in and v_in - u_in within the node tolerance, v_in below it
        pytest.param("nonlinear", {"u": -0.75e-12, "v": -1.5e-12}, DomainError,
                     id="v_in<0"),
    ],
)
def test_study_rejects_bad_options_before_any_run(monkeypatch, kind, options, error):
    # bad options and data, eps-dependent or not, are all found before the
    # first member is integrated
    import fastslow.rates as rates

    def no_run(*args, **kwargs):
        raise AssertionError("a member ran")

    monkeypatch.setattr(rates, "_simulate_with_limit", no_run)
    options = dict(options)
    g = build_grid(np.pi, 16)
    u = SpectralField.from_values(g, np.full(16, options.pop("u", 0.0)))
    v = SpectralField.from_values(g, np.full(16, options.pop("v", 0.0)))
    p = ModelParams(d=1.0, delta=0.1, eps=0.1, model_kind=kind)
    study = {"eps_list": [1e-1, 1e-2], "T": 0.1, **options}
    with pytest.raises(error):
        convergence_study(p, u, v, **study)


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
@pytest.mark.parametrize("n", [8, 64, 128, 256])
def test_study_members_equal_separate_solver_runs(kind, n):
    # each member steps both systems in one loop; its trajectories and norms
    # must be exactly those of the two public solvers run apart with the same
    # dt and stride (n = 128, converge's grid, is the largest on the matrix
    # transform path, n = 256 on the real FFT path)
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


def diverging_study():
    # c = 0 removes the Lotka-Volterra saturation: at a = 40 the member with
    # eps = 0.01 blows up before T = 0.1 while larger ones finish
    g = build_grid(math.pi, 16)
    p = ModelParams(d=1.0, delta=0.0, eps=0.1, kappa=1.0, a=40.0, b=0.0, c=0.0)
    v_in = SpectralField.from_values(g, np.ones(16))
    u_in = SpectralField.from_values(g, 0.5 * np.ones(16))
    return p, u_in, v_in


def test_diverging_member_recorded_and_left_out_of_the_fit():
    p, u_in, v_in = diverging_study()
    rep = convergence_study(p, u_in, v_in, [0.1, 0.03, 0.01], T=0.1, delta_rule={"type": "zero"})
    ok, bad = rep.runs[:2], rep.runs[2]
    assert bad.norms is None
    assert bad.failure.startswith("state diverged at t=")
    # eps_in is known before the stepping, so the failed member keeps it
    eps_in = initial_layer(u_in, v_in, p).eps_in
    assert math.isfinite(eps_in) and all(r.eps_in == eps_in for r in rep.runs)
    assert all(r.norms is not None and r.failure is None for r in ok)
    order, _ = fit_order([r.eps for r in ok], [r.norms.E_LinfL2 for r in ok])
    assert rep.orders["E_LinfL2"] == order


@pytest.mark.parametrize(
    "eps, errors, named",
    [
        ([0.1, 0.01], [1e-2, 0.0], "positive error"),
        ([0.1, 0.01], [1e-2, float("nan")], "positive error"),
        ([0.1, -0.01], [1e-2, 1e-3], "positive eps"),
        ([0.1, 0.01, 0.001], [1e-2, 1e-3], "3 eps values and 2 errors"),
        ([0.1, 0.1], [1e-2, 1e-3], "distinct eps"),
    ],
    ids=["zero error", "nan error", "negative eps", "unequal lengths", "equal eps"],
)
def test_fit_order_rejects_bad_input(capfd, eps, errors, named):
    # not a silent nan slope, a bare TypeError or LAPACK's lines on stderr
    with pytest.raises(ConfigurationError, match=named):
        fit_order(eps, errors)
    assert capfd.readouterr().err == ""


def test_forked_members_report_what_members_in_process_do(monkeypatch, tmp_path, no_child_left):
    # The member with the most steps is submitted first and diverges, so the
    # members finish out of list order; the report must not show it.  Each
    # member writes down the process it ran in.
    import fastslow.rates as rates

    step_both = rates._simulate_with_limit

    def logged(*args):
        with open(tmp_path / "pids", "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return step_both(*args)

    monkeypatch.setattr(rates, "_simulate_with_limit", logged)
    p, u_in, v_in = diverging_study()
    reports, pids = {}, {}
    for workers in (1, 3):
        monkeypatch.setattr(_parallel, "_worker_count", lambda n, workers=workers: workers)
        reports[workers] = convergence_study(
            p, u_in, v_in, [0.1, 0.03, 0.01], T=0.1, delta_rule={"type": "zero"}
        )
        assert no_child_left()
        pids[workers] = (tmp_path / "pids").read_text().split()
        (tmp_path / "pids").unlink()
    assert pids[1] == [str(os.getpid())] * 3
    # the caller is one of the workers; one that finishes early may take a
    # second member
    assert len(pids[3]) == 3 and str(os.getpid()) in pids[3] and len(set(pids[3])) <= 3
    serial, forked = reports[1], reports[3]
    assert [r.failure is None for r in forked.runs] == [True, True, False]
    for a, b in zip(serial.runs, forked.runs):
        assert (a.eps, a.delta, a.eps_in, a.norms, a.failure) == (
            b.eps, b.delta, b.eps_in, b.norms, b.failure
        )
    assert serial.orders == forked.orders
    assert serial.fit_residual == forked.fit_residual
    assert serial.plateau == forked.plateau


@pytest.mark.parametrize("workers", [1, 2])
def test_member_error_reaches_the_caller(monkeypatch, workers, no_child_left):
    # an error other than divergence ends the study with the member's own
    # exception, in process or forked, and leaves no child behind
    import fastslow.rates as rates

    step_both = rates._simulate_with_limit

    def broken(state0, params, *args):
        if params.eps == 0.03:
            raise ShapeError("member eps=0.03 is broken")
        return step_both(state0, params, *args)

    monkeypatch.setattr(rates, "_simulate_with_limit", broken)
    monkeypatch.setattr(_parallel, "_worker_count", lambda n: workers)
    p, u_in, v_in = diverging_study()
    with pytest.raises(ShapeError, match=r"^member eps=0\.03 is broken$") as caught:
        convergence_study(p, u_in, v_in, [0.1, 0.03, 0.01], T=0.1, delta_rule={"type": "zero"})
    assert type(caught.value) is ShapeError
    assert no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_of_two_failing_members_the_smaller_eps_is_reported(monkeypatch, workers, no_child_left):
    import fastslow.rates as rates

    step_both = rates._simulate_with_limit

    def broken(state0, params, *args):
        if params.eps in (0.1, 0.03):
            raise ShapeError(f"member eps={params.eps} is broken")
        return step_both(state0, params, *args)

    monkeypatch.setattr(rates, "_simulate_with_limit", broken)
    monkeypatch.setattr(_parallel, "_worker_count", lambda n: workers)
    p, u_in, v_in = diverging_study()
    with pytest.raises(ShapeError, match=r"^member eps=0\.03 is broken$"):
        convergence_study(p, u_in, v_in, [0.1, 0.03, 0.01], T=0.1, delta_rule={"type": "zero"})
    assert no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_the_caller_runs_the_smallest_eps_member(monkeypatch, tmp_path, workers, no_child_left):
    # the member with the most steps runs, and is measured, in this process
    import fastslow.rates as rates

    step_both = rates._simulate_with_limit

    def logged(state0, params, *args):
        with open(tmp_path / "ran", "a", encoding="ascii") as fh:
            fh.write(f"{params.eps} {os.getpid()}\n")
        return step_both(state0, params, *args)

    monkeypatch.setattr(rates, "_simulate_with_limit", logged)
    monkeypatch.setattr(_parallel, "_worker_count", lambda n: workers)
    p, u_in, v_in = diverging_study()
    convergence_study(p, u_in, v_in, [0.1, 0.03, 0.01], T=0.1, delta_rule={"type": "zero"})
    assert no_child_left()
    ran = dict(line.split() for line in (tmp_path / "ran").read_text().splitlines())
    assert sorted(ran) == ["0.01", "0.03", "0.1"]
    assert ran["0.01"] == str(os.getpid())


def test_worker_count_follows_the_usable_cpus(monkeypatch):
    # one process per usable CPU and member; a single CPU runs in process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _parallel._worker_count(4) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert _parallel._worker_count(4) == 3
    assert _parallel._worker_count(2) == 2
    assert _parallel._worker_count(1) == 1


FORKED_STUDY_AND_SWEEP = """
import sys, threading
sys.path.insert(0, sys.argv[1])
import numpy as np
import fastslow.cli
from fastslow import (ModelParams, SpectralField, _parallel, build_grid, convergence_study,
                      lyapunov_perron_sweep, splitting_parameters)
_parallel._worker_count = lambda n: 2
g = build_grid(np.pi, 16)
p = ModelParams(d=1.0, delta=0.0, eps=0.1, kappa=1.0, a=40.0, b=0.0, c=0.0)
u, v = (SpectralField.from_values(g, np.full(16, x)) for x in (0.5, 1.0))
convergence_study(p, u, v, [0.1, 0.03, 0.01], T=0.1, delta_rule={"type": "zero"})
lp = ModelParams(d=1.0, delta=0.001, eps=0.01, model_kind="linear")
split = splitting_parameters(10.0)
lyapunov_perron_sweep([np.full(split.k0, x) for x in (0.1, 0.2)], lp, split, n_t=256)
print(sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent")),
      threading.active_count())
"""


def test_import_loads_no_process_pool():
    # neither importing the package nor a forked study and sweep loads
    # multiprocessing or concurrent.futures, or starts a thread
    src = Path(fastslow.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", FORKED_STUDY_AND_SWEEP, str(src)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] 1"
