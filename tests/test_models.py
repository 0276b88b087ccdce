import numpy as np
import pytest

from fastslow import ModelParams, lipschitz_estimates
from fastslow.errors import ConfigurationError
from fastslow.models import _reaction_gradients, node_psi, node_remainder
from fastslow.reduction import critical_map_u_of_v


def nonlinear(**kw):
    base = dict(d=1.0, delta=0.0, eps=0.1, kappa=1.0, a=1.0, b=1.0, c=1.0)
    base.update(kw)
    return ModelParams(**base)


def test_reaction_vanishes_at_origin():
    zero = np.zeros(1)
    n_u, n_v = node_remainder(nonlinear(), zero, zero)
    assert n_u[0] == 0.0 and n_v[0] == 0.0


def test_reaction_psi_value():
    one = np.ones(1)
    assert node_psi(nonlinear(), one, one)[0] == -1.0  # (1 - 1 - 1) * 1


def test_partial_derivatives_match_finite_differences():
    # at kappa = 0 the two rows of node_remainder are phi and psi
    p = nonlinear(kappa=0.0, a=1.3, b=0.4, c=2.1)
    rng = np.random.default_rng(0)
    h = 1e-6
    for _ in range(100):
        x, y = rng.uniform(0.0, 3.0, size=2)
        X = np.array([x + h, x - h, x, x])
        Y = np.array([y, y, y + h, y - h])
        exact = _reaction_gradients(p, np.array([x]), np.array([y]))
        for k, rows in enumerate(node_remainder(p, X, Y)):  # k = 0: phi, k = 1: psi
            d1 = (rows[0] - rows[1]) / (2 * h)
            d2 = (rows[2] - rows[3]) / (2 * h)
            a1, a2 = exact[2 * k][0], exact[2 * k + 1][0]
            assert abs(d1 - a1) <= 1e-6 * max(1.0, abs(a1))
            assert abs(d2 - a2) <= 1e-6 * max(1.0, abs(a2))


def test_g_root_is_critical_map():
    # g(x, y) = -x + kappa (y - x)^2 = 0 with y >= x >= 0 implies x = h_kappa(y)
    for kappa in (0.25, 1.0, 2.0):
        for y in (0.0, 0.5, 2.0, 7.0):
            x = critical_map_u_of_v(y, kappa)
            g = -x + kappa * (y - x) ** 2
            assert abs(g) < 1e-12
            assert 0.0 <= x <= y


def test_lipschitz_kappa_zero():
    L_f, _, _ = lipschitz_estimates(nonlinear(kappa=0.0), M=1.0)
    assert L_f == 0.0


class _SyntheticConstants:
    C_star = 1.1
    K_M = 10.0
    K0 = 2.0


def test_lipschitz_synthetic_inputs():
    L_f, _, _ = lipschitz_estimates(nonlinear(kappa=0.01), M=1.0, constants=_SyntheticConstants())
    assert abs(L_f - 1.32) < 1e-12  # 0.01 * 12 * 1.1 * 10


def test_lipschitz_gradient_suprema_match_brute_force():
    # oracle: dense-grid supremum of the l1 gradient norm over [0, K0]^2
    p = nonlinear()
    _, L_phi, L_psi = lipschitz_estimates(p, M=1.0, constants=_SyntheticConstants())
    xs = np.linspace(0.0, 2.0, 401)
    X, Y = np.meshgrid(xs, xs)
    phi_x, phi_y, psi_x, psi_y = _reaction_gradients(p, X, Y)
    brute_phi = np.max(np.abs(phi_x) + np.abs(phi_y))
    brute_psi = np.max(np.abs(psi_x) + np.abs(psi_y))
    assert abs(L_phi - brute_phi) < 1e-12
    assert abs(L_psi - brute_psi) < 1e-12
    assert abs(L_psi - 7.0) < 1e-12  # attained at the (K0, K0) corner


def test_lipschitz_rejects_bad_radius():
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ConfigurationError):
            lipschitz_estimates(nonlinear(), M=bad)


def test_params_validation():
    with pytest.raises(ConfigurationError):
        ModelParams(d=0.0, delta=0.0, eps=0.1)
    with pytest.raises(ConfigurationError):
        ModelParams(d=1.0, delta=0.0, eps=-1.0)
    with pytest.raises(ConfigurationError):
        ModelParams(d=1.0, delta=0.0, eps=0.1, model_kind="cubic")
    # a non-finite parameter never reaches a solver as a silent nan row
    for name in ("d", "delta", "eps", "kappa", "a", "b", "c", "L"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigurationError, match=name):
                ModelParams(**{"d": 1.0, "delta": 0.0, "eps": 0.1, name: bad})
    # reactions-off and kappa = 0 degenerate cases are allowed
    ModelParams(d=1.0, delta=0.0, eps=0.1, kappa=0.0, a=0.0, b=0.0, c=0.0)


@pytest.mark.parametrize(
    "kw",
    [{}, {"kappa": 0.0}, {"a": 0.0, "b": 0.0, "c": 0.0}, {"kappa": 3.7, "eps": 1e-4, "a": 2.0}],
)
def test_node_remainder_matches_the_reaction_formulas(kw):
    # the solvers' remainder is (kappa (y - x)^2 / eps + phi, psi) with
    # phi = (a - b x - c y) x and psi = (a - b x - c y) y
    p = nonlinear(**kw)
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 2.0, 96)
    y = rng.uniform(-1.0, 2.0, 96)
    lv = p.a - p.b * x - p.c * y
    n_u, n_v = node_remainder(p, x, y)
    np.testing.assert_allclose(n_u, (p.kappa / p.eps) * (y - x) ** 2 + lv * x, rtol=1e-14, atol=0)
    np.testing.assert_allclose(n_v, lv * y, rtol=1e-14, atol=0)
    np.testing.assert_allclose(node_psi(p, x, y), lv * y, rtol=1e-14, atol=0)


def node_values(seed, shape):
    # seeded node values of either sign over 303 orders of magnitude, with
    # exact zeros and 1e-300 among them
    rng = np.random.default_rng(seed)
    vals = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
    flat = vals.reshape(-1)
    flat[::7] = 0.0
    flat[3::11] = 1e-300
    flat[5::13] = -1e-300
    flat[1::17] = 1e3
    return vals


def remainder_formula(p, x, y):
    # the written formulas, each evaluated into new arrays
    lv = p.a - p.b * x - p.c * y
    return (p.kappa / p.eps) * (y - x) ** 2 + lv * x, lv * y


def critical_formula(v, kappa):
    v = np.maximum(v, 0.0)
    return 4.0 * kappa * v**2 / (1.0 + np.sqrt(1.0 + 4.0 * kappa * v)) ** 2


IN_PLACE_PARAMS = [{}, {"kappa": 0.0}, {"a": 0.0, "b": 0.0, "c": 0.0},
                   {"kappa": 3.7, "eps": 1e-4, "a": 2.0, "b": 0.3, "c": 1.7}]


@pytest.mark.parametrize("kw", IN_PLACE_PARAMS)
@pytest.mark.parametrize("shape", [(192,), (5, 96)], ids=["row", "block"])
def test_in_place_node_maps_equal_the_allocating_formulas(kw, shape):
    # the solvers' node maps overwrite their node rows; every bit must be
    # that of the formula evaluated into new arrays (shape (5, 96) is a
    # Lyapunov-Perron block of time nodes); a converge member's rows
    # (u, v, v_lim) go through one paired map while its systems share a band
    from fastslow.integrator import _full_node_map
    from fastslow.reduction import _critical_pointwise, _limit_node_map, _paired_node_map

    p = nonlinear(**kw)
    for seed in range(4):
        vals = node_values(seed, (3,) + shape)
        x, y, v = vals.copy()
        n_u, n_v = remainder_formula(p, x, y)
        h = critical_formula(v, p.kappa)
        psi = remainder_formula(p, h, v)[1]

        out = vals.copy()
        assert _paired_node_map(p, out) is out
        assert np.array_equal(out, np.stack([n_u, n_v, psi]))
        out = vals[:2].copy()
        _full_node_map(p, out)
        assert np.array_equal(out, np.stack([n_u, n_v]))
        out = vals[2:].copy()
        _limit_node_map(p, out)
        assert np.array_equal(out[0], psi)

        rows = vals.copy()
        r0, r1 = node_remainder(p, rows[0], rows[1], (rows[0], rows[1]))
        assert r0.base is rows and r1.base is rows
        assert np.array_equal(rows[:2], np.stack([n_u, n_v]))
        assert np.array_equal(node_psi(p, x, rows[2], rows[2]), remainder_formula(p, x, v)[1])
        assert np.array_equal(_critical_pointwise(v.copy(), p.kappa, out=rows[2]), h)
        assert np.array_equal(rows[2], h)


def extreme_node_values(seed, case):
    # node rows (u, v, v_lim): "mixed" puts values near 1e154 of either
    # sign (where (v - u)^2 and h_kappa's v^2 overflow), nan and +-inf among
    # node_values' zeros and negatives; "v_lim only" keeps u and v moderate
    # and puts -1.2e154 into v_lim, where only a product with
    # (v_lim - h_kappa(v_lim))^2 = v_lim^2 and kappa/eps would overflow
    rng = np.random.default_rng(seed)
    vals = node_values(seed, (3, 192))
    flat = vals.reshape(-1)
    if case == "mixed":
        flat[2::19] = rng.choice([-1.0, 1.0], flat[2::19].shape) * 10.0 ** rng.uniform(
            153.8, 154.2, flat[2::19].shape
        )
        flat[4::23] = np.nan
        flat[6::29] = np.inf
        flat[8::31] = -np.inf
    else:
        vals[2, ::5] = -1.2e154
    return vals


@pytest.mark.parametrize("kw", IN_PLACE_PARAMS)
@pytest.mark.parametrize("case", ["mixed", "v_lim only"])
@pytest.mark.parametrize("seed", range(3))
def test_paired_node_map_has_the_bits_and_warnings_of_the_two_maps(kw, case, seed):
    # a converge member's paired map writes the bits of _full_node_map into
    # rows u and v and of _limit_node_map into row v_lim, and raises no
    # floating-point warning that the two maps do not raise
    import warnings

    from fastslow.integrator import _full_node_map
    from fastslow.reduction import _limit_node_map, _paired_node_map

    p = nonlinear(**kw)
    vals = extreme_node_values(seed, case)
    with warnings.catch_warnings(record=True) as apart:
        warnings.simplefilter("always")
        full = _full_node_map(p, vals[:2].copy())
        limit = _limit_node_map(p, vals[2:].copy())
    with warnings.catch_warnings(record=True) as paired:
        warnings.simplefilter("always")
        out = _paired_node_map(p, vals.copy())
    for row, expected in zip(out, [full[0], full[1], limit[0]]):
        assert row.tobytes() == expected.tobytes()
    assert {str(w.message) for w in paired} <= {str(w.message) for w in apart}


@pytest.mark.parametrize("kw", IN_PLACE_PARAMS)
def test_callers_arrays_are_left_unchanged(kw):
    p = nonlinear(**kw)
    x, y = node_values(7, (2, 64))
    x0, y0 = x.copy(), y.copy()
    n_u, n_v = node_remainder(p, x, y)
    assert np.array_equal(x, x0) and np.array_equal(y, y0)
    assert not np.shares_memory(n_u, x) and not np.shares_memory(n_v, y)
    assert np.array_equal(np.stack([n_u, n_v]), np.stack(remainder_formula(p, x0, y0)))
    assert np.array_equal(node_psi(p, x, y), remainder_formula(p, x0, y0)[1])
    assert np.array_equal(x, x0) and np.array_equal(y, y0)
    v = np.abs(y)
    v0 = v.copy()
    assert np.array_equal(critical_map_u_of_v(v, p.kappa), critical_formula(v0, p.kappa))
    assert np.array_equal(v, v0)
    assert critical_map_u_of_v(2.0, p.kappa) == critical_formula(2.0, p.kappa)
