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
from oracles import node_sups


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


@pytest.mark.parametrize("kappa", [1.0, 0.3])
def test_second_order_against_radau_on_constant_data(kappa):
    # spatially constant data stays constant, so mode 0 follows the reaction
    # ODE u' = -u/eps + (kappa/eps)(v - u)^2 + (1 - u - v) u, v' = (1 - u - v) v,
    # which an independent stiff solver resolves far below the ETD2 error
    integrate = pytest.importorskip("scipy.integrate")
    g = build_grid(np.pi, 8)
    p = nonlinear_params(eps=1e-2, kappa=kappa)
    u0, v0, T = 0.05, 0.6, 0.5

    def reaction(t, y):
        u, v = y
        lv = 1.0 - u - v
        return [-u / p.eps + (p.kappa / p.eps) * (v - u) ** 2 + lv * u, lv * v]

    ref = integrate.solve_ivp(
        reaction, (0.0, T), [u0, v0], method="Radau", rtol=1e-13, atol=1e-15
    ).y[:, -1]
    s0 = FastSlowState(
        SpectralField.from_values(g, np.full(g.N, u0)),
        SpectralField.from_values(g, np.full(g.N, v0)),
        0.0,
    )
    errs = []
    for m in (2, 4, 8, 16):
        end = simulate(s0, p, T, dt=p.eps / m, sample_every=10**9).final()
        errs.append(max(abs(end.u.coeffs[0] - ref[0]), abs(end.v.coeffs[0] - ref[1])))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all((1.9 <= orders) & (orders <= 2.2)), orders


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
        assert_sups_near_the_oracle(traj.u1_linf, traj.u2_linf, traj.coeffs)
    end = full.final()
    assert end.t == 0.37
    assert np.array_equal(end.u.coeffs, full.coeffs[-1, 0])
    assert np.array_equal(end.v.coeffs, full.coeffs[-1, 1])


def assert_sups_near_the_oracle(u1_linf, u2_linf, coeffs, N=None):
    """The sups of the states ``coeffs`` (n, 2, K) on N >= K nodes (N = K
    by default) within SUP_ULPS ulp of the sums of their absolute
    amplitudes of the long-double node sups."""
    sups, scale = node_sups(coeffs, N or coeffs.shape[-1])
    got = np.stack([u1_linf, u2_linf])
    assert np.all(np.abs(got - sups) <= SUP_ULPS * np.finfo(float).eps * scale)


def test_sups_equal_node_value_sups_past_the_matrix_path():
    # at N = 256 the sups of these data, which fill every mode, come from
    # the real FFT inverse in permuted node order; they are the sups of the
    # node values in the order of x
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
    assert_sups_near_the_oracle(traj.u1_linf, traj.u2_linf, traj.coeffs)


# Sups of the node values within this many ulp of the sum of the absolute
# amplitudes, the size of the rounding of any sum of the amplitudes' terms;
# the folded products and the FFT inverse stayed within 2.7 of it.
SUP_ULPS = 4


def folded(N, W):
    from fastslow.integrator import _BLOCK_BYTES, _block_len

    return 4 * W * N <= 2 * min(_block_len(build_grid(np.pi, N)) * 16 * N, _BLOCK_BYTES)


def banded_states(rng, n, N, widths):
    """n states (u, v) on N modes, the i-th holding its first widths[i] amplitudes, the last nonzero."""
    states = np.zeros((n, 2, N))
    for i, w in enumerate(widths):
        states[i, :, :w] = rng.standard_normal((2, w)) * np.exp(-0.2 * np.arange(w))
        states[i, :, w - 1] = rng.standard_normal(2)
    return states


@pytest.mark.parametrize("N", [8, 64, 256, 4096, 8192])
def test_block_sups_equal_long_double_node_sups(N):
    from fastslow.integrator import _block_sups

    rng = np.random.default_rng(N)
    g = build_grid(np.pi, N)
    widths = sorted({w for w in (8, 16, 32, 64, 128) if w <= N} | {N})
    for W in widths:
        n = 1 if W > 1024 else 5  # the oracle's cost grows as W N
        states = banded_states(rng, n, N, [W] * n)
        u1, u2 = _block_sups(g, states[..., :W])
        assert_sups_near_the_oracle(u1, u2, states[..., :W], N)
    # both the folded products and the FFT inverse are checked
    assert folded(N, 8) and (N <= 64 or not folded(N, N))


def test_band_width_is_the_smallest_power_of_two_holding_every_nonzero_column():
    from fastslow.integrator import _band_width

    states = np.zeros((3, 2, 256))
    assert _band_width(states) == 8
    for top, W in [(0, 8), (7, 8), (8, 16), (16, 32), (17, 32), (128, 256), (255, 256)]:
        states[1, 1, top] = -1e-300
        assert _band_width(states) == W
    assert _band_width(np.ones((1, 2, 8))) == 8


@pytest.mark.parametrize("N", [8, 64, 256, 1024, 4096, 8192])
def test_a_samples_sups_keep_their_bits_beside_samples_of_a_wider_band(N):
    # each state alone, on its own band, against the block of all, on the
    # widest band, wherever both take the same path (folded or FFT)
    from fastslow.integrator import _band_width, _block_sups

    rng = np.random.default_rng(N + 1)
    g = build_grid(np.pi, N)
    compared = set()
    for _ in range(8):
        n = int(rng.integers(1, 9))
        widths = [min(N, 1 << int(rng.integers(0, 8))) for _ in range(n)]
        states = banded_states(rng, n, N, widths)
        W = _band_width(states)
        block = _block_sups(g, states[..., :W])
        for i in range(n):
            own = _band_width(states[i : i + 1])
            if folded(N, own) != folded(N, W):
                continue
            compared.add(folded(N, W))
            alone = _block_sups(g, states[i : i + 1, :, :own])
            assert np.array_equal(alone[:, 0], block[:, i])
    assert True in compared
    if N == 8192:
        states = banded_states(rng, 3, N, [64, 128, 64])
        assert not folded(N, 64)
        block = _block_sups(g, states[..., :128])
        for i in range(3):
            width = _band_width(states[i : i + 1])
            assert np.array_equal(_block_sups(g, states[i : i + 1, :, :width])[:, 0], block[:, i])


@pytest.mark.parametrize("N", [8, 64, 256, 4096, 8192, 65536])
def test_sobolev_squares_on_the_first_2w_columns_keep_the_bits_of_all_n(N):
    # on the first W columns alone the sums over modes >= 1 round in
    # another order, and the bits differ
    from fastslow.spectral_core import _sobolev_squares

    rng = np.random.default_rng(N + 2)
    g = build_grid(np.pi, N)
    W = 8
    while W <= N:
        for n in (1, 3, 8):
            states = banded_states(rng, n, N, [W] * n)
            full = _sobolev_squares(g, states, 2)
            band = _sobolev_squares(g, states[..., : 2 * W], 2)
            assert all(np.array_equal(a, b) for a, b in zip(full, band))
        W *= 4 if N == 65536 else 2


def test_no_node_matrix_above_the_cap(monkeypatch):
    from fastslow import integrator

    built, node_cosines = [], integrator._node_cosines

    def spy(n, k):
        built.append((n, k))
        return node_cosines(n, k)

    monkeypatch.setattr(integrator, "_node_cosines", spy)
    rng = np.random.default_rng(3)
    for N, W, expected in [(65536, 8, []), (32768, 8, [(32768, 8)]), (8192, 64, []),
                           (8192, 32, [(8192, 32)]), (4096, 128, []), (4096, 64, [(4096, 64)]),
                           (1024, 128, []), (1024, 64, [(1024, 64)])]:
        built.clear()
        states = banded_states(rng, 1, N, [W])
        integrator._block_sups(build_grid(np.pi, N), states[..., :W])
        assert built == expected, (N, W)
        if expected:
            matrices = node_cosines(N, W)
            assert matrices.nbytes == 4 * W * N <= 1 << 20
            assert not matrices.flags.writeable


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


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_matrix_path_remainders_allocate_nothing_of_the_state_size(rows):
    # numpy reports its buffers to tracemalloc.  The same 20 steps are
    # taken with a zero remainder and with one through the matrix path (a
    # node map that works in place): the transforms may not raise the peak
    # of the steps by a state's size, the zero partner row of an odd stack
    # included.  Each run's buffers exist from its first sample on.  The
    # steps are taken on all N modes and, from data that decay faster, on
    # their band of K = 64 modes.
    import tracemalloc

    from fastslow import integrator
    from fastslow.integrator import _block_diagonal, _full_propagator, _System, _time_loop
    from fastslow.reduction import _limit_propagator

    g = build_grid(np.pi, 128)
    p = nonlinear_params(eps=0.05)
    full, limit = _full_propagator(p, g, 0.01), _limit_propagator(p, g, 0.01)
    prop = {1: limit, 2: full, 3: _block_diagonal([full, limit])}[rows]
    y0 = 0.1 * np.random.default_rng(rows).standard_normal((rows, g.N)) * np.exp(-np.arange(g.N))

    def node_map(vals):
        return np.multiply(vals, vals, out=vals)

    def peak_of_the_steps(node_map):
        loop = _time_loop(g, 0.0, 20, [_System(y, prop, node_map, "state")], 20)
        next(loop)
        tracemalloc.start()
        try:
            final = [y for _, y in loop]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(final) == 1 and np.all(np.isfinite(final[0]))
        return peak

    for y, K in ((y0, g.N), (y0 * np.exp(-3.0 * np.arange(g.N)), 64)):
        assert integrator._band(y, g.N) == K
        peak_of_the_steps(node_map)  # the transform matrices are cached on first use
        assert peak_of_the_steps(node_map) - peak_of_the_steps(None) < rows * K * 8


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("N", [8, 128, 4096])
@pytest.mark.parametrize("padded", [False, True])  # True: the matrix path's .base[pad:] rows
def test_apply_has_the_bits_of_the_written_formula(rows, N, padded):
    # per mode, sum_j P[i, j] y[j] with each product rounded and the sums
    # taken in order of j: a fused multiply-add would round once per term,
    # and random operands show it
    from fastslow.integrator import _apply, _Workspace

    rng = np.random.default_rng(rows * N)
    ws = _Workspace((rows, N), 3 * N // 2 if padded else None)
    y, out = ws.states[0], ws.states[1]
    assert y.shape == (rows, N) and len(y.base) == rows + (padded and rows % 2)
    for P in (rng.standard_normal((rows, rows, N)), rng.standard_normal((N, rows, rows)).T):
        y[...] = rng.standard_normal((rows, N))
        written = P[:, 0] * y[0]
        for j in range(1, rows):
            written = written + P[:, j] * y[j]
        assert _apply(P, y, out) is out
        assert out.tobytes() == written.tobytes()
        assert out.tobytes() == np.add.reduce(P * y, axis=1).tobytes()


# ---------------------------------------------------------------------------
# the band-held time loop


def band_and_full(monkeypatch, run):
    """``run()`` on the bands its data choose, and again with every band
    forced to all N modes (no amplitude is at most -inf times the largest)."""
    from fastslow import integrator

    banded = run()
    with monkeypatch.context() as m:
        m.setattr(integrator, "_BAND_TOL", -np.inf)
        full = run()
    return [t if isinstance(t, tuple) else (t,) for t in (banded, full)]


def filled_state(grid, seed):
    # every amplitude far above the roundoff floor, and v > u > 0 on the nodes
    rng = np.random.default_rng(seed)
    taper = 0.05 * np.exp(-0.01 * np.arange(grid.N)) / (1.0 + np.arange(grid.N))
    u, v = rng.standard_normal((2, grid.N)) * taper
    u[0], v[0] = 0.3, 1.0
    return FastSlowState(SpectralField(grid, u), SpectralField(grid, v), 0.0)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("N, data", [(8, "two modes"), (8, "filled"), (64, "filled"), (256, "filled")])
def test_every_mode_filled_or_n_8_keeps_the_bits_of_all_n_modes(
    monkeypatch, bands_formed, solver, N, data
):
    # data that fill every mode, and every N = 8 grid, give the band K = N,
    # where the loop is the N-mode loop bit for bit
    from fastslow.reduction import _simulate_with_limit

    g = build_grid(np.pi, N)
    p = nonlinear_params(eps=0.02, kappa=0.5)
    if data == "filled":
        s0 = filled_state(g, N)
    else:
        v0 = SpectralField(g, np.r_[0.5, 0.4, np.zeros(N - 2)])
        s0 = FastSlowState(0.5 * v0, v0, 0.0)

    def run():
        if solver == "simulate":
            return simulate(s0, p, T=0.05, dt=0.005, sample_every=3)
        if solver == "solve_limit_system":
            return solve_limit_system(s0.v, p, T=0.05, dt=0.005, sample_every=3)
        return _simulate_with_limit(s0, p, 0.05, 0.005, 3)

    banded, full = band_and_full(monkeypatch, run)
    assert all(K == N for bands in bands_formed for _, K in bands)
    for a, b in zip(banded, full):
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert np.array_equal(a.u1_linf, b.u1_linf)
        assert np.array_equal(a.u2_linf, b.u2_linf)


def assert_close_to_the_full_run(banded, full, rtol):
    assert np.array_equal(banded.times, full.times)
    for name in ("coeffs", "u1_linf", "u2_linf"):
        a, b = getattr(banded, name), getattr(full, name)
        assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b)), name


@pytest.mark.parametrize("N", [64, 256, 1024])
@pytest.mark.parametrize("kappa, eps", [(1.0, 0.05), (5.0, 0.02)])
def test_a_band_that_grows_matches_the_run_on_all_n_modes(monkeypatch, bands_formed, N, kappa, eps):
    # two cosine modes and a fast reaction: each quadratic remainder widens
    # the spectrum, so the band starts at K = 8 and grows as the reaction
    # feeds the modes above K/4 during the run
    g = build_grid(np.pi, N)
    p = nonlinear_params(eps=eps, kappa=kappa)
    u0 = SpectralField(g, np.r_[0.2, 0.2, np.zeros(N - 2)])
    v0 = SpectralField(g, np.r_[0.6, 0.6, np.zeros(N - 2)])
    s0 = FastSlowState(u0, v0, 0.0)
    (banded,), (full,) = band_and_full(
        monkeypatch, lambda: simulate(s0, p, T=0.5, dt=0.4 * eps, sample_every=1)
    )
    # the bands of the run, then the forced run's K = N
    grown = [bands[0][1] for bands in bands_formed]
    assert grown[0] == 8 and grown[-1] == N and len(grown) > 3 and grown == sorted(grown)
    assert not banded.coeffs[1, :, 8:].any() and banded.coeffs[-1, :, 8:].any()
    assert_close_to_the_full_run(banded, full, 1e-12)


@pytest.mark.parametrize("N", [32, 128, 256, 512])
@pytest.mark.parametrize("kappa", [1.0, 20.0, 200.0])
@pytest.mark.parametrize(
    "coeffs", [[1.0, 0.05, 0.015], [1.0, 0.6, 0.18], [0.6, 0.6]],
    ids=["ripple", "wave", "touches zero"],
)
def test_limit_system_far_from_linear_matches_the_run_on_all_n_modes(
    monkeypatch, bands_formed, N, kappa, coeffs
):
    # 4 kappa v up to 4.8 to 960: h_kappa(v) is far from its quadratic
    # start, and aliases on the band's 3K/2 padded nodes as it would not on
    # 3N/2.  Where v touches zero, h_kappa(v) has many more modes than v:
    # the first band holds (h_kappa(v_in), v_in), and a band from v_in
    # alone moved these runs by 1e-9 to 3e-8
    g = build_grid(np.pi, N)
    p = nonlinear_params(eps=0.01, delta=0.0, kappa=kappa)
    v0 = SpectralField(g, np.r_[coeffs, np.zeros(N - len(coeffs))])
    (banded,), (full,) = band_and_full(
        monkeypatch, lambda: solve_limit_system(v0, p, T=0.2, dt=0.002, sample_every=5)
    )
    if N >= 256 and coeffs[0] == 1.0:  # data away from zero take a band below N
        assert bands_formed[0][0][1] < N
    assert_close_to_the_full_run(banded, full, 1e-12)
