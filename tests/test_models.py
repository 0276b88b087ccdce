import numpy as np
import pytest

from fastslow import ModelParams, eval_reaction, lipschitz_estimates
from fastslow.errors import ConfigurationError
from fastslow.models import node_remainder
from fastslow.reduction import critical_map_u_of_v


def nonlinear(**kw):
    base = dict(d=1.0, delta=0.0, eps=0.1, kappa=1.0, a=1.0, b=1.0, c=1.0)
    base.update(kw)
    return ModelParams(**base)


def test_reaction_worked_values():
    r = eval_reaction(nonlinear(), 1.0, 2.0)
    assert abs(r.g) < 1e-15          # -1 + (2-1)^2 = 0
    assert r.g1 == -3.0
    assert r.g2 == 2.0


def test_reaction_vanishes_at_origin():
    r = eval_reaction(nonlinear(), 0.0, 0.0)
    assert r.g == 0.0 and r.phi == 0.0 and r.psi == 0.0


def test_reaction_psi_value():
    r = eval_reaction(nonlinear(), 1.0, 1.0)
    assert r.psi == -1.0  # (1 - 1 - 1) * 1


def test_linear_kind_values():
    p = ModelParams(d=1.0, delta=0.0, eps=0.1, model_kind="linear")
    r = eval_reaction(p, 0.3, 0.9)
    assert abs(r.g - (0.9 - 0.6)) < 1e-15
    assert r.g1 == -2.0 and r.g2 == 1.0
    assert r.phi == 0.0 and r.psi == 0.0 and r.phi1 == 0.0 and r.psi2 == 0.0


def test_partial_derivatives_match_finite_differences():
    p = nonlinear(kappa=0.7, a=1.3, b=0.4, c=2.1)
    rng = np.random.default_rng(0)
    h = 1e-6
    for _ in range(100):
        x, y = rng.uniform(0.0, 3.0, size=2)
        r = eval_reaction(p, x, y)
        for name, fn in (("g", "g"), ("phi", "phi"), ("psi", "psi")):
            d1 = (
                getattr(eval_reaction(p, x + h, y), fn)
                - getattr(eval_reaction(p, x - h, y), fn)
            ) / (2 * h)
            d2 = (
                getattr(eval_reaction(p, x, y + h), fn)
                - getattr(eval_reaction(p, x, y - h), fn)
            ) / (2 * h)
            a1 = getattr(r, f"{name}1")
            a2 = getattr(r, f"{name}2")
            assert abs(d1 - a1) <= 1e-6 * max(1.0, abs(a1))
            assert abs(d2 - a2) <= 1e-6 * max(1.0, abs(a2))


def test_g1_at_most_minus_one_in_admissible_region():
    p = nonlinear(kappa=0.8)
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 5.0, 500)
    y = x + rng.uniform(0.0, 5.0, 500)
    r = eval_reaction(p, x, y)
    assert np.all(r.g1 <= -1.0)


def test_g_root_is_critical_map():
    # g(x, y) = 0 with y >= x >= 0 implies x = h_kappa(y)
    for kappa in (0.25, 1.0, 2.0):
        p = nonlinear(kappa=kappa)
        for y in (0.0, 0.5, 2.0, 7.0):
            x = critical_map_u_of_v(y, kappa)
            r = eval_reaction(p, x, y)
            assert abs(r.g) < 1e-12
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
    r = eval_reaction(p, X, Y)
    brute_phi = np.max(np.abs(r.phi1) + np.abs(r.phi2))
    brute_psi = np.max(np.abs(r.psi1) + np.abs(r.psi2))
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
def test_node_remainder_matches_eval_reaction(kw):
    # the solvers' remainder is (kappa f~ / eps + phi, psi) of the reaction terms
    p = nonlinear(**kw)
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 2.0, 96)
    y = rng.uniform(-1.0, 2.0, 96)
    r = eval_reaction(p, x, y)
    n_u, n_v = node_remainder(p, x, y)
    np.testing.assert_allclose(n_u, (p.kappa / p.eps) * r.f_tilde + r.phi, rtol=1e-14, atol=0)
    np.testing.assert_allclose(n_v, r.psi, rtol=1e-14, atol=0)
