import numpy as np
import pytest

from fastslow import (
    FastSlowState,
    ModelParams,
    SpectralField,
    build_grid,
    closed_form_solution,
    linear_propagator,
    mode_spectrum,
    simulate,
    solve_limit_system,
)
from fastslow.errors import ConfigurationError, DivergenceError


def linear_params(eps=0.1, delta=0.1, d=1.0):
    return ModelParams(d=d, delta=delta, eps=eps, model_kind="linear")


def nonlinear_params(**kw):
    base = dict(d=1.0, delta=0.01, eps=0.05, kappa=1.0, a=1.0, b=1.0, c=1.0)
    base.update(kw)
    return ModelParams(**base)


def random_state(grid, rng, decay=0.3):
    taper = np.exp(-decay * np.arange(grid.N))
    u = SpectralField(grid, rng.standard_normal(grid.N) * taper)
    v = SpectralField(grid, rng.standard_normal(grid.N) * taper)
    return FastSlowState(u, v, 0.0)


def test_propagator_dt_zero_is_identity():
    g = build_grid(np.pi, 16)
    prop = linear_propagator(linear_params(), g, 0.0)
    for k in range(g.N):
        assert np.allclose(prop.E[:, :, k], np.eye(2))
        assert np.all(prop.W1[:, :, k] == 0.0)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -0.1])
def test_propagator_rejects_bad_step(dt):
    with pytest.raises(ConfigurationError):
        linear_propagator(linear_params(), build_grid(np.pi, 16), dt)


def test_propagator_eigenvalues_match_mode_rates():
    g = build_grid(np.pi, 16)
    p = linear_params(eps=0.1, delta=0.1, d=1.0)
    prop = linear_propagator(p, g, 0.05)
    sp = mode_spectrum(p, 2)
    assert abs(sp.Omega - np.sqrt(4.0016)) < 1e-12
    ev = np.sort(np.linalg.eigvals(prop.M[:, :, 2]).real)
    assert np.max(np.abs(ev - np.sort([sp.fast_rate, sp.slow_rate]))) < 1e-12


def test_propagator_mode_zero_no_cross_diffusion():
    # delta = 0, k = 0, linear kind: M = [[-2/eps, 1/eps], [0, 0]];
    # the second row of exp(tM) is exactly (0, 1)
    g = build_grid(np.pi, 16)
    p = linear_params(eps=0.2, delta=0.0)
    prop = linear_propagator(p, g, 0.3)
    M = prop.M[:, :, 0]
    assert np.allclose(M, [[-10.0, 5.0], [0.0, 0.0]])
    assert abs(prop.E[1, 0, 0]) < 1e-15
    assert abs(prop.E[1, 1, 0] - 1.0) < 1e-15


def test_linear_step_matches_closed_form_any_dt():
    g = build_grid(np.pi, 16)
    p = linear_params(eps=0.05, delta=0.02)
    rng = np.random.default_rng(0)
    state = random_state(g, rng)
    for dt in (0.01, 0.37, 1.4):
        new = simulate(state, p, dt, dt=dt).final()
        for k in range(g.N):
            ue, ve, _ = closed_form_solution(
                state.u.coeffs[k], state.v.coeffs[k], p, k, dt
            )
            assert abs(new.u.coeffs[k] - ue) < 1e-12
            assert abs(new.v.coeffs[k] - ve) < 1e-12


@pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-4])
@pytest.mark.parametrize("delta", [0.0, 0.02])
@pytest.mark.parametrize("N", [8, 64])
def test_linear_solvers_match_closed_forms_at_the_edges(N, delta, eps):
    # the full system and the limit system (u = v/2) against the closed
    # forms of every mode and sample, at delta = 0 and the smallest grid,
    # from data of either sign (a small mode 0 lets the others change it)
    g = build_grid(np.pi, N)
    p = linear_params(eps=eps, delta=delta)
    rng = np.random.default_rng(N)
    taper = 1.0 / (1.0 + np.arange(N)) ** 2
    taper[0] = 0.1
    u0, v0 = rng.standard_normal((2, N)) * taper
    s0 = FastSlowState(SpectralField(g, u0), SpectralField(g, v0), 0.0)
    for w in (s0.u, s0.v):
        assert np.min(w.values()) < 0.0 < np.max(w.values())
    scale = max(np.max(np.abs(u0)), np.max(np.abs(v0)))
    for dt in (0.01, 0.5):
        full = simulate(s0, p, T=0.5, dt=dt)
        limit = solve_limit_system(s0.v, p, T=0.5, dt=dt)
        for k in range(N):
            u, v, _ = closed_form_solution(u0[k], v0[k], p, k, full.times)
            assert np.max(np.abs(full.coeffs[:, 0, k] - u)) <= 1e-12 * scale
            assert np.max(np.abs(full.coeffs[:, 1, k] - v)) <= 1e-12 * scale
            _, _, v_lim = closed_form_solution(u0[k], v0[k], p, k, limit.times)
            assert np.max(np.abs(limit.coeffs[:, 1, k] - v_lim)) <= 1e-12 * scale
            assert np.max(np.abs(limit.coeffs[:, 0, k] - 0.5 * v_lim)) <= 1e-12 * scale


def test_zero_state_stays_zero_nonlinear():
    g = build_grid(np.pi, 16)
    state = FastSlowState(SpectralField.zero(g), SpectralField.zero(g), 0.0)
    new = simulate(state, nonlinear_params(), 0.01, dt=0.01).final()
    assert np.max(np.abs(new.u.coeffs)) == 0.0
    assert np.max(np.abs(new.v.coeffs)) == 0.0


def test_step_rejects_unstable_dt():
    g = build_grid(np.pi, 16)
    state = FastSlowState(SpectralField.zero(g), SpectralField.zero(g), 0.0)
    with pytest.raises(ConfigurationError):
        simulate(state, nonlinear_params(eps=0.01), 0.1, dt=0.1)


def test_self_convergence_second_order():
    g = build_grid(np.pi, 32)
    p = nonlinear_params()
    x = g.nodes
    s0 = FastSlowState(
        SpectralField.from_values(g, 0.2 * (1 + np.cos(x))),
        SpectralField.from_values(g, 0.6 * (1 + np.cos(x))),
        0.0,
    )
    T = 0.2
    ref = simulate(s0, p, T, dt=T / 2048, sample_every=10**9).final()
    errs = []
    for n in (64, 128):
        end = simulate(s0, p, T, dt=T / n, sample_every=10**9).final()
        errs.append(
            np.max(np.abs(end.u.coeffs - ref.u.coeffs))
            + np.max(np.abs(end.v.coeffs - ref.v.coeffs))
        )
    order = np.log2(errs[0] / errs[1])
    assert 1.7 <= order <= 2.3
    # halving dt reduces the error by a factor 4 +- 20%
    assert 3.2 <= errs[0] / errs[1] <= 4.8


def test_mode_zero_conservation_reactions_off():
    # a = b = c = 0: psi vanishes, so the v mass (mode 0) is conserved
    g = build_grid(np.pi, 32)
    rng = np.random.default_rng(1)
    for delta in (0.0, 0.01):
        p = ModelParams(d=1.0, delta=delta, eps=0.05, kappa=1.0, a=0.0, b=0.0, c=0.0)
        x = g.nodes
        s0 = FastSlowState(
            SpectralField.from_values(g, 0.3 * (1 + np.cos(x))),
            SpectralField.from_values(g, 0.8 * (1 + 0.5 * np.cos(x))),
            0.0,
        )
        traj = simulate(s0, p, T=1.0, dt=0.02, sample_every=10)
        m0 = list(traj.coeffs[:, 1, 0])
        assert max(abs(m - m0[0]) for m in m0) < 1e-10


def test_simulate_t_zero_returns_initial_state():
    g = build_grid(np.pi, 16)
    rng = np.random.default_rng(2)
    s0 = random_state(g, rng)
    traj = simulate(s0, nonlinear_params(), T=0.0)
    assert len(traj.times) == 1 and traj.times[0] == s0.t
    assert np.array_equal(traj.coeffs[0], np.stack([s0.u.coeffs, s0.v.coeffs]))


def test_energy_sup_bound_along_trajectory():
    # sup bound on u1 = u and u2 = v - u from the initial data and a, b, c
    g = build_grid(np.pi, 32)
    p = nonlinear_params(eps=0.05, delta=0.01)
    x = g.nodes
    u_in = 0.2 * (1 + np.cos(x))
    v_in = 0.6 * (1 + np.cos(x))
    s0 = FastSlowState(
        SpectralField.from_values(g, u_in), SpectralField.from_values(g, v_in), 0.0
    )
    traj = simulate(s0, p, T=1.0, dt=0.025, sample_every=4)
    n1 = np.max(np.abs(u_in))
    n2 = np.max(np.abs(v_in - u_in))
    a, b, c = p.a, p.b, p.c
    bound = lambda j: (
        n1 ** (1.0 / j)
        + n2 ** (2.0 / j)
        + (a / (b + c)) ** (1.0 / j)
        + (2 * b / c) ** (1.0 / j)
        + (2 * a / c) ** (2.0 / j)
    )
    assert np.all(traj.u1_linf <= bound(1) + 1e-8)
    assert np.all(traj.u2_linf <= bound(2) + 1e-8)


def test_propagator_spectral_radius_at_most_one():
    g = build_grid(np.pi, 16)
    rng = np.random.default_rng(9)
    for _ in range(20):
        kind = "linear" if rng.random() < 0.5 else "nonlinear"
        p = ModelParams(
            d=rng.uniform(0.3, 2.0),
            delta=10 ** rng.uniform(-4, -1),
            eps=10 ** rng.uniform(-3, -1),
            kappa=1.0,
            model_kind=kind,
        )
        prop = linear_propagator(p, g, 10 ** rng.uniform(-3, 0))
        for k in range(g.N):
            radius = np.max(np.abs(np.linalg.eigvals(prop.E[:, :, k])))
            assert radius <= 1.0 + 1e-12


def test_nonlinear_mode_matrix_form():
    g = build_grid(np.pi, 16)
    p = nonlinear_params(eps=0.05, delta=0.01, d=1.0)
    prop = linear_propagator(p, g, 0.01)
    k = 3
    mu = k**2
    expected = np.array([[-(1.0 + 0.01) * mu - 1 / 0.05, 0.0], [-0.01 * mu, -mu]])
    assert np.allclose(prop.M[:, :, k], expected)


def _augmented_phis(Z, k_max):
    """phi_0(Z) .. phi_k_max(Z) of one 2x2 matrix, as the first block row of
    expm of the block matrix with Z in the corner and identities above the
    diagonal (Saad 1992)."""
    from scipy.linalg import expm

    n = k_max + 1
    big = np.zeros((2 * n, 2 * n))
    big[:2, :2] = Z
    for b in range(n - 1):
        big[2 * b : 2 * b + 2, 2 * b + 2 : 2 * b + 4] = np.eye(2)
    top = expm(big)[:2]
    return [top[:, 2 * b : 2 * b + 2] for b in range(n)]


def test_matrix_function_confluent_fallback():
    # phi_0..phi_3 of distinct, nearly confluent (gap 1e-9, below
    # EIGEN_GAP_CUTOFF) and defective 2x2 matrices, each stacked three times,
    # against the blocks of the augmented matrix's expm; relative to the
    # largest entry, phi_3 inherits the scalar phi_3's cancellation near the
    # series cutoff
    from fastslow.integrator import _matrix_phi

    cases = [
        [[-2.0, 0.7], [0.3, -0.5]],
        [[-0.3, 1.0], [0.0, -0.3 - 1e-9]],
        [[-0.3, 1.0], [0.0, -0.3]],
        [[-0.3, 0.0], [1e-12, -0.3]],
        [[-40.0, 1.0], [0.0, -40.0]],
    ]
    bounds = (5e-15, 5e-15, 5e-15, 1e-13)
    for Z in map(np.array, cases):
        got = _matrix_phi((0, 1, 2, 3), np.repeat(Z[:, :, None], 3, axis=2))
        for mine, ref, bound in zip(got, _augmented_phis(Z, 3), bounds):
            for col in range(3):
                assert np.max(np.abs(mine[:, :, col] - ref)) <= bound * np.max(np.abs(ref))


PHI_POINTS = [0.0, 1e-12, -1e-12, 1e-6, -1e-6, 0.0499, -0.0499, 0.0501, -0.0501,
              0.3, -1.0, -20.0, -400.0, 5.0]


@pytest.mark.parametrize("k, bound", [(0, 1e-14), (1, 1e-14), (2, 1e-14), (3, 1e-12)])
def test_phi_family_against_mpmath(k, bound):
    # reference: the closed form (e^z - sum_{j<k} z^j/j!) / z^k at 100 digits,
    # enough to absorb its cancellation at z = 1e-12
    mpmath = pytest.importorskip("mpmath")
    from fastslow.integrator import _phi

    got = _phi(k, np.array(PHI_POINTS))
    with mpmath.workdps(100):
        for z, value in zip(PHI_POINTS, got):
            if z == 0.0:
                ref = mpmath.mpf(1) / mpmath.factorial(k)
            else:
                zm = mpmath.mpf(z)
                head = sum(zm**j / mpmath.factorial(j) for j in range(k))
                ref = (mpmath.exp(zm) - head) / zm**k
            assert abs((value - ref) / ref) <= bound, (z, value, ref)


def test_simulate_composes_etd_steps():
    g = build_grid(np.pi, 16)
    p = nonlinear_params()
    rng = np.random.default_rng(4)
    x = g.nodes
    state = FastSlowState(
        SpectralField.from_values(g, 0.1 * (1 + np.cos(x))),
        SpectralField.from_values(g, 0.4 * (1 + np.cos(x))),
        0.0,
    )
    traj = simulate(state, p, T=0.1, dt=0.02, sample_every=1)
    manual = state
    for _ in range(5):
        manual = simulate(manual, p, 0.02, dt=0.02).final()
    assert np.max(np.abs(traj.final().u.coeffs - manual.u.coeffs)) < 1e-15
    assert np.max(np.abs(traj.final().v.coeffs - manual.v.coeffs)) < 1e-15


def test_divergence_error_carries_time():
    # c = 0 removes the Lotka-Volterra saturation; large a blows up
    g = build_grid(np.pi, 16)
    p = ModelParams(d=1.0, delta=0.0, eps=0.05, kappa=1.0, a=40.0, b=0.0, c=0.0)
    s0 = FastSlowState(
        SpectralField.from_values(g, 0.5 * np.ones(16)),
        SpectralField.from_values(g, np.ones(16)),
        0.0,
    )
    with pytest.raises(DivergenceError) as err:
        simulate(s0, p, T=2.0, dt=0.02)
    assert err.value.t is not None and 0 < err.value.t <= 2.0


def failing_after(fn, n_good, bad):
    """``fn`` for its first ``n_good`` calls, then every output filled with ``bad``."""
    calls = []

    def wrapped(*args):
        out = fn(*args)
        calls.append(1)
        if len(calls) <= n_good:
            return out
        if isinstance(out, tuple):
            return tuple(np.full_like(o, bad) for o in out)
        return np.full_like(out, bad)

    return wrapped


@pytest.mark.parametrize("system", ["full", "limit"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("n_good", [6, 7])
def test_non_finite_remainder_raises_with_its_step_time(monkeypatch, system, bad, n_good):
    # two remainder evaluations per step: a bad 7th or 8th one spoils step 4
    from fastslow import integrator, reduction, solve_limit_system

    g = build_grid(np.pi, 16)
    p = nonlinear_params(eps=0.05, kappa=0.5)
    v0 = SpectralField.from_values(g, 0.5 * (1.0 + np.cos(g.nodes)))
    # the spoiled step does arithmetic on nan and inf on purpose
    with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore"):
        if system == "full":
            monkeypatch.setattr(
                integrator, "node_remainder", failing_after(integrator.node_remainder, n_good, bad)
            )
            simulate(FastSlowState(0.5 * v0, v0, 0.0), p, T=0.1, dt=0.01)
        else:
            monkeypatch.setattr(
                reduction, "node_psi", failing_after(reduction.node_psi, n_good, bad)
            )
            solve_limit_system(v0, p, T=0.1, dt=0.01)
    assert err.value.t == 4 * (0.1 / 10)
    assert str(err.value).startswith("state" if system == "full" else "limit system")


@pytest.mark.parametrize(
    "spoiled, named",
    [(["full"], "state"), (["limit"], "limit system"), (["full", "limit"], "state")],
)
def test_paired_run_names_the_system_that_diverged(monkeypatch, spoiled, named):
    # a huge but finite remainder from the 7th evaluation on pushes step 4
    # past the blow-up bound in the spoiled systems only
    from fastslow import integrator, reduction
    from fastslow.reduction import _simulate_with_limit

    g = build_grid(np.pi, 16)
    p = nonlinear_params(eps=0.05, kappa=0.5)
    v0 = SpectralField.from_values(g, 0.5 * (1.0 + np.cos(g.nodes)))
    if "full" in spoiled:
        monkeypatch.setattr(
            integrator, "node_remainder", failing_after(integrator.node_remainder, 6, 1e12)
        )
    if "limit" in spoiled:
        monkeypatch.setattr(reduction, "node_psi", failing_after(reduction.node_psi, 6, 1e12))
    with pytest.raises(DivergenceError) as err:
        _simulate_with_limit(FastSlowState(0.5 * v0, v0, 0.0), p, 0.1, 0.01, 1)
    assert err.value.t == 4 * (0.1 / 10)
    assert str(err.value) == f"{named} diverged at t=0.04"


@pytest.mark.parametrize(
    "map_name, row, named",
    [("_full_node_map", 0, "state"), ("_limit_node_map", -1, "limit system")],
    ids=["u", "v_lim"],
)
@pytest.mark.parametrize("n_good", [6, 7])
def test_paired_run_names_the_row_that_went_non_finite(monkeypatch, map_name, row, named, n_good):
    # a nan written to one node row by the 7th or 8th remainder spoils step 4;
    # the block-diagonal product spreads it to every row of the new state
    from fastslow import reduction
    from fastslow.reduction import _simulate_with_limit

    node_map = getattr(reduction, map_name)
    calls = []

    def spoiled(params, vals):
        out = node_map(params, vals)
        calls.append(1)
        if len(calls) > n_good:
            out[row] = np.nan
        return out

    monkeypatch.setattr(reduction, map_name, spoiled)
    g = build_grid(np.pi, 16)
    p = nonlinear_params(eps=0.05, kappa=0.5)
    v0 = SpectralField.from_values(g, 0.5 * (1.0 + np.cos(g.nodes)))
    with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore"):
        _simulate_with_limit(FastSlowState(0.5 * v0, v0, 0.0), p, 0.1, 0.01, 1)
    assert err.value.t == 4 * (0.1 / 10)
    assert str(err.value) == f"{named} diverged at t=0.04"


@pytest.mark.parametrize("kind", ["nonlinear", "linear"])
def test_off_stride_final_sample_full_and_limit(kind):
    # T = 0.37 at dt = 0.004 takes 93 steps; stride 7 samples steps 0, 7, ..,
    # 91 and then the off-stride final step 93
    from fastslow import critical_map_u_of_v, solve_limit_system

    g = build_grid(np.pi, 32)
    if kind == "linear":
        p = linear_params(eps=0.05, delta=0.01)
    else:
        p = nonlinear_params(eps=0.01, delta=0.001, kappa=0.5)
    x = g.nodes
    s0 = FastSlowState(
        SpectralField.from_values(g, 0.2 * (1 + np.cos(x))),
        SpectralField.from_values(g, 0.6 * (1 + np.cos(x))),
        0.0,
    )
    full = simulate(s0, p, T=0.37, dt=0.004, sample_every=7)
    limit = solve_limit_system(s0.v, p, T=0.37, dt=0.004, sample_every=7)
    for traj in (full, limit):
        assert len(traj.times) == 15
        assert traj.coeffs.shape == (15, 2, g.N)
        assert traj.u1_linf.shape == traj.u2_linf.shape == (15,)
        assert traj.times[-1] == 0.37
    assert np.array_equal(full.times, limit.times)
    assert np.allclose(np.diff(full.times[:-1]), 7 * 0.37 / 93, rtol=1e-12)
    for u, v in limit.coeffs:
        if kind == "linear":
            expected = 0.5 * v
        else:
            expected = critical_map_u_of_v(SpectralField(g, v), p.kappa).coeffs
        assert np.array_equal(u, expected)
    for traj in (full, limit):
        for n, (u, v) in enumerate(traj.coeffs):
            u_vals = SpectralField(g, u).values()
            v_vals = SpectralField(g, v).values()
            assert traj.u1_linf[n] == np.max(np.abs(u_vals))
            assert traj.u2_linf[n] == np.max(np.abs(v_vals - u_vals))
    end = full.final()
    assert end.t == 0.37
    assert np.array_equal(end.u.coeffs, full.coeffs[-1, 0])
    assert np.array_equal(end.v.coeffs, full.coeffs[-1, 1])


def test_sups_equal_node_value_sups_past_the_matrix_path():
    # at N = 256 the sups come from the real FFT inverse in permuted node
    # order; they equal the sups of the node values in the order of x
    from fastslow.spectral_core import _MATRIX_MAX_N

    g = build_grid(np.pi, 256)
    assert g.N > _MATRIX_MAX_N
    x = g.nodes
    s0 = FastSlowState(
        SpectralField.from_values(g, 0.2 * (1 + np.cos(x)) + 0.05 * np.cos(7 * x)),
        SpectralField.from_values(g, 0.6 * (1 + np.cos(x)) - 0.1 * np.cos(3 * x)),
        0.0,
    )
    traj = simulate(s0, nonlinear_params(eps=0.01), T=0.05, sample_every=5)
    for n, (u, v) in enumerate(traj.coeffs):
        u_vals = SpectralField(g, u).values()
        v_vals = SpectralField(g, v).values()
        assert traj.u1_linf[n] == np.max(np.abs(u_vals))
        assert traj.u2_linf[n] == np.max(np.abs(v_vals - u_vals))


SOLVERS = ["simulate", "solve_limit_system", "_simulate_with_limit"]


def run_solver(solver, T, dt, sample_every=1):
    from fastslow.reduction import _simulate_with_limit, solve_limit_system

    g = build_grid(np.pi, 16)
    p = nonlinear_params()
    v0 = SpectralField.from_values(g, 0.5 * (1.0 + np.cos(g.nodes)))
    s0 = FastSlowState(0.5 * v0, v0, 0.0)
    if solver == "simulate":
        return simulate(s0, p, T=T, dt=dt, sample_every=sample_every)
    if solver == "solve_limit_system":
        return solve_limit_system(v0, p, T=T, dt=dt, sample_every=sample_every)
    return _simulate_with_limit(s0, p, T, dt, sample_every)


@pytest.mark.parametrize("solver", SOLVERS)
def test_sample_every_below_one_rejected(solver):
    with pytest.raises(ConfigurationError):
        run_solver(solver, 0.1, 0.01, sample_every=0)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize(
    "T, dt",
    [
        (0.1, 0.0),
        (0.1, -0.01),
        (0.1, np.nan),
        (0.1, np.inf),
        (0.1, 5e-324),
        (np.inf, 0.01),
        (np.nan, 0.01),
        (-0.1, 0.01),
    ],
)
def test_bad_horizon_or_step_rejected(solver, T, dt):
    # one check for every solver: no ZeroDivisionError, OverflowError or
    # ValueError, and no silent single step or empty run
    with pytest.raises(ConfigurationError):
        run_solver(solver, T, dt)


@pytest.mark.parametrize("T", [np.inf, np.nan])
def test_simulate_default_step_rejects_a_bad_horizon(T):
    with pytest.raises(ConfigurationError):
        run_solver("simulate", T, None)


@pytest.mark.parametrize("solver", SOLVERS)
def test_zero_horizon_takes_no_step_whatever_dt(solver):
    out = run_solver(solver, 0.0, 0.0)
    for traj in out if isinstance(out, tuple) else (out,):
        assert traj.times.tolist() == [0.0]
