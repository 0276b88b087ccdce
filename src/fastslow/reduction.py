"""Critical manifold map, limit system, initial layer and constants chain.

The algebraic constraint -u + kappa (v - u)^2 = 0 with 0 <= u <= v has the
unique admissible root

    u = h_kappa(v) = 4 kappa v^2 / (1 + sqrt(1 + 4 kappa v))^2,

written in a cancellation-free form (equivalent to
v + (1 - sqrt(4 kappa v + 1)) / (2 kappa), and to the kappa = 1 expression
(2v + 1 - sqrt(4v + 1)) / 2).  The limit system

    dv/dt = d v_xx + psi(h_kappa(v), v)

is integrated by the same exponential RK2 step and the same time loop as
the full system (``integrator._etd2_step`` and ``integrator._time_loop``),
as one row v with the (1, 1, N) propagator of the scalar per-mode symbol
-d mu_k and the remainder psi(h_kappa(v), v) from ``models.node_psi``.  A
convergence member steps it in the one loop together with the full system
(``_simulate_with_limit``), sharing every transform pair.  The loop steps
v only; each sample's u = h_kappa(v) is reconstructed from its v as the
sample arrives (``_limit_state``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError, DomainError
from .integrator import (
    FastSlowState,
    ModePropagator,
    Trajectory,
    _block_diagonal,
    _full_node_map,
    _full_propagator,
    _propagator,
    _sample_count,
    _step_count,
    _time_loop,
    _trajectory,
)
from .models import ModelParams, node_psi
from .spectral_core import Grid, SpectralField, _dealiased, nonlinear_eval

__all__ = [
    "ConstantsReport",
    "InitialLayerReport",
    "critical_map_u_of_v",
    "initial_layer",
    "theoretical_constants",
    "sharp_embedding_constant_numeric",
    "solve_limit_system",
]

NODE_TOL = 1e-12
# Factor on the numeric smoothing constant, a lower bound, in ``theoretical_constants``.
HS_INFLATION = 1.5


def _critical_pointwise(v: np.ndarray, kappa: float) -> np.ndarray:
    v = np.maximum(np.asarray(v, dtype=float), 0.0)
    s = 1.0 + np.sqrt(1.0 + 4.0 * kappa * v)
    return 4.0 * kappa * v**2 / s**2


def critical_map_u_of_v(v, kappa: float):
    """u = h_kappa(v), the admissible root of -u + kappa (v - u)^2 = 0.

    Accepts scalars, arrays or a SpectralField (applied through dealiased
    pointwise evaluation).  Requires v >= 0; satisfies 0 <= u <= v.
    """
    if isinstance(v, SpectralField):
        vals = v.values()
        if np.min(vals) < -NODE_TOL:
            raise DomainError(
                f"negative node value {np.min(vals):.3e} outside tolerance"
            )
        return nonlinear_eval([v], lambda w: _critical_pointwise(w, kappa))
    arr = np.asarray(v, dtype=float)
    if np.min(arr) < -NODE_TOL:
        raise DomainError(f"negative value {np.min(arr):.3e} outside tolerance")
    out = _critical_pointwise(arr, kappa)
    return float(out) if np.isscalar(v) or arr.ndim == 0 else out


@dataclass(frozen=True)
class InitialLayerReport:
    """Residual size of the initial data and the projected starting point."""

    eps_in: float
    u0: SpectralField
    deviation_ratio: float  # ||u_in - u0||_H2 / eps_in, nan when eps_in ~ 0


def initial_layer(
    u_in: SpectralField, v_in: SpectralField, params: ModelParams
) -> InitialLayerReport:
    """Initial-layer size eps_in, the H2 norm of the constraint's residual.

    The residual is -u_in + kappa (v_in - u_in)^2 for the nonlinear kind,
    whose data must satisfy v_in >= u_in >= 0, and v_in - 2 u_in for the
    linear kind, whose data may take either sign.  Also returns u0, the
    u-component the limit system starts from (h_kappa(v_in), or v_in/2),
    and the ratio ||u_in - u0||_H2 / eps_in.
    """
    if params.is_linear:
        eps_in = (v_in - 2.0 * u_in).sobolev_norm(2)
        u0 = 0.5 * v_in
    else:
        u_vals, v_vals = u_in.values(), v_in.values()
        if np.min(u_vals) < -NODE_TOL or np.min(v_vals - u_vals) < -NODE_TOL:
            raise DomainError("initial data must satisfy v_in >= u_in >= 0 pointwise")
        residual = nonlinear_eval([u_in, v_in], lambda x, y: -x + params.kappa * (y - x) ** 2)
        eps_in = residual.sobolev_norm(2)
        u0 = critical_map_u_of_v(v_in, params.kappa)
    if eps_in > 1e-13:
        ratio = (u_in - u0).sobolev_norm(2) / eps_in
    else:
        ratio = float("nan")
    return InitialLayerReport(eps_in=eps_in, u0=u0, deviation_ratio=ratio)


# ---------------------------------------------------------------------------
# constants chain


@dataclass(frozen=True)
class ConstantsReport:
    """Embedding/smoothing constants and the admissibility chain for radius M."""

    M: float
    C_star: float
    C_HS: float
    lambda_1: float
    K0: float
    K1: float
    K2: float
    K_M: float
    kappa_bound: float
    kappa_ok: bool


def _sup_abs_psi(a, b, c, K0):
    # psi(x, y) = (a - b x - c y) y is affine in x, quadratic in y: the
    # maximum of |psi| over the square sits at x in {0, K0} and y at an
    # endpoint or the interior critical point (a - b x) / (2 c).
    best = 0.0
    for x in (0.0, K0):
        ys = [0.0, K0]
        if c > 0:
            ys.append(min(max((a - b * x) / (2 * c), 0.0), K0))
        for y in ys:
            best = max(best, abs((a - b * x - c * y) * y))
    return best


def _sum_sup_abs_dpsi(a, b, c, K0):
    corners = [(0.0, 0.0), (0.0, K0), (K0, 0.0), (K0, K0)]
    sup1 = max(abs(-b * y) for _, y in corners)
    sup2 = max(abs(a - b * x - 2 * c * y) for x, y in corners)
    return sup1 + sup2


def _estimate_smoothing_constant(d, L, rng):
    """Numeric lower bound for the heat-smoothing constant of eq-type

        || e^{t d dxx} w_x ||_p <= C e^{-lambda_1 t} t^{-1/2} || w ||_p

    maximized over 200 random fields on 48 modes, sampled at 512 points, 40
    log-spaced t in [1e-3, 1] and p in {2, inf}."""
    n_fields, n_modes, fine = 200, 48, 512
    lam1 = (math.pi / L) ** 2
    k = np.arange(1, n_modes + 1)
    x = np.linspace(0.0, L, fine)
    cos_tab = np.cos(np.outer(k, x) * (np.pi / L))
    sin_tab = np.sin(np.outer(k, x) * (np.pi / L))
    coeffs = rng.standard_normal((n_fields, n_modes)) / (1.0 + k**2)
    w_l2 = np.sqrt((L / 2) * np.sum(coeffs**2, axis=1))
    w_linf = np.max(np.abs(coeffs @ cos_tab), axis=1)
    s = -coeffs * (k * np.pi / L)  # sine amplitudes of w_x
    # one buffer for the node values of every t: a fresh array of this size
    # each time can be mapped anew by the allocator, one page fault per page
    vals = np.empty((n_fields, fine))
    best = 0.0
    for t in np.logspace(-3, 0, 40):
        decay = np.exp(-d * (k * np.pi / L) ** 2 * t)
        st = s * decay
        n_l2 = np.sqrt((L / 2) * np.sum(st**2, axis=1))
        n_linf = np.max(np.abs(np.matmul(st, sin_tab, out=vals), out=vals), axis=1)
        scale = math.sqrt(t) * math.exp(lam1 * t)
        best = max(best, float(np.max(n_l2 / w_l2)) * scale)
        best = max(best, float(np.max(n_linf / w_linf)) * scale)
    return best


def theoretical_constants(params: ModelParams, M: float, rng=None) -> ConstantsReport:
    """Embedding constant, smoothing estimate and the K-chain for radius M.

    C_star = sqrt(coth(L)) is the sharp sup-norm embedding constant of
    H1(0, L) (reproducing-kernel closed form); C_HS is a numeric lower bound
    inflated by HS_INFLATION and is only used for the conservative
    admissibility report, never by the solvers.
    """
    if not 0 < M < math.inf:
        raise ConfigurationError(f"ball radius must be finite and positive, got M={M}")
    if rng is None:
        rng = np.random.default_rng(0)
    L = params.L
    C_star = math.sqrt(1.0 / math.tanh(L))
    lam1 = (math.pi / L) ** 2
    C_HS = HS_INFLATION * _estimate_smoothing_constant(params.d, L, rng)
    a, b, c = params.a, params.b, params.c
    K0 = C_star * M + (a / c if c > 0 else 0.0)
    root = math.sqrt(math.pi / lam1)
    K1 = C_star * M + C_HS * root * _sup_abs_psi(a, b, c, K0)
    K2 = M + 3.0 * C_HS * root * _sum_sup_abs_dpsi(a, b, c, K0) * math.sqrt(L) * K1
    K_M = (2 * K0 + 3 * K1) * math.sqrt(L) + 3 * K2 + 2 * math.sqrt(L) * K1**2
    kappa_bound = 1.0 / (12.0 * C_star * K_M)
    return ConstantsReport(
        M=M,
        C_star=C_star,
        C_HS=C_HS,
        lambda_1=lam1,
        K0=K0,
        K1=K1,
        K2=K2,
        K_M=K_M,
        kappa_bound=kappa_bound,
        kappa_ok=bool(params.kappa < kappa_bound),
    )


def sharp_embedding_constant_numeric(L, n_trials=2000, rng=None):
    """Numeric maximization of |w(x0)| / ||w||_H1 over cosine polynomials.

    Combines seeded random trials with the exact supremum over the truncated
    space of modes 0 .. 256 (the H1 norm of the point-evaluation functional,
    computed per x0 at 801 points from the orthogonal basis).  Converges to
    sqrt(coth(L)) as the mode count grows.
    """
    n_modes, n_x = 256, 801
    if rng is None:
        rng = np.random.default_rng(0)
    k = np.arange(n_modes + 1)
    mu = (k * np.pi / L) ** 2
    h = (L / 2) * (1.0 + mu)
    h[0] = L
    x0 = np.linspace(0.0, L, n_x)
    basis = np.cos(np.outer(k, x0) * (np.pi / L))
    riesz = np.sqrt(np.max(np.sum(basis**2 / h[:, None], axis=0)))
    best = 0.0
    for _ in range(n_trials):
        c = rng.standard_normal(n_modes + 1) / (1.0 + k)
        w = c @ basis
        norm = math.sqrt(float(np.sum(h * c**2)))
        best = max(best, float(np.max(np.abs(w))) / norm)
    return max(best, float(riesz))


# ---------------------------------------------------------------------------
# limit system


def _limit_propagator(params: ModelParams, grid: Grid, dt: float) -> ModePropagator:
    """The (1, 1, N) propagator of the limit system's per-mode symbol.

    The symbol is -d mu_k, or -(d + delta/2) mu_k for the linear kind, whose
    limit step is then exact.
    """
    if params.is_linear:
        lam = -(params.d + params.delta / 2.0) * grid.mu
    else:
        lam = -params.d * grid.mu
    return _propagator(lam[None, None], dt)


def _limit_node_map(params: ModelParams, vals: np.ndarray) -> np.ndarray:
    """psi(h_kappa(v), v) in place of the node values of the last row v."""
    vals[-1] = node_psi(params, _critical_pointwise(vals[-1], params.kappa), vals[-1])
    return vals


def _paired_node_map(params: ModelParams, vals: np.ndarray) -> np.ndarray:
    """The full remainder on the rows (u, v) and the limit one on v_lim."""
    return _limit_node_map(params, _full_node_map(params, vals))


def _limit_state(params: ModelParams, grid: Grid, v: np.ndarray) -> np.ndarray:
    """The state (u, v) = (h_kappa(v), v), shape (2, N), of a sampled limit state v."""
    state = np.empty((2, grid.N))
    state[1] = v
    if params.is_linear:
        state[0] = 0.5 * v
    else:
        # permissive reconstruction: v may dip below zero at roundoff scale
        # when it touches the axis; the pointwise map clips there
        state[0] = _dealiased(grid, v, partial(_critical_pointwise, kappa=params.kappa))
    return state


def _check_limit_data(params: ModelParams, v_in: SpectralField) -> None:
    # the linear kind's limit u = v/2 holds for data of either sign
    if not params.is_linear and np.min(v_in.values()) < -NODE_TOL:
        raise DomainError("limit system requires v_in >= 0 pointwise")


def _limit_samples(v_in: SpectralField, params: ModelParams, T, dt=None, sample_every=1) -> tuple:
    """The number of samples of ``solve_limit_system`` and an iterator over
    them, (t, (h_kappa(v), v)).

    Everything is checked before it returns; the steps are taken, and u
    reconstructed, as the iterator is read.
    """
    if dt is None:
        dt = T / 1000.0
    n_steps, dt = _step_count(T, dt)
    _check_limit_data(params, v_in)
    n_samples = _sample_count(n_steps, sample_every)
    grid = v_in.grid
    prop = _limit_propagator(params, grid, dt) if n_steps else None
    node_map = None if params.is_linear else partial(_limit_node_map, params)
    loop = _time_loop(
        grid, v_in.coeffs[None], 0.0, n_steps, prop, node_map, ("limit system",), sample_every
    )
    return n_samples, ((t, _limit_state(params, grid, y[0])) for t, y in loop)


def solve_limit_system(
    v_in: SpectralField,
    params: ModelParams,
    T: float,
    dt: float | None = None,
    sample_every: int = 1,
    constants: ConstantsReport | None = None,
) -> Trajectory:
    """Integrate the reduced system dv/dt = d v_xx + psi(h_kappa(v), v).

    Uses the exponential RK2 stepper with the scalar symbol -d mu_k (for the
    linear kind the reduced symbol is -(d + delta/2) mu_k and the step is
    exact).  dt defaults to T/1000 and is shrunk so that an integer number
    of steps lands exactly on T.  Returns a trajectory whose u-component is
    h_kappa(v) at every sample.
    """
    n_samples, samples = _limit_samples(v_in, params, T, dt, sample_every)
    if constants is not None and not constants.kappa_ok:
        warnings.warn(
            "kappa exceeds the admissibility bound; the critical manifold "
            "theory does not certify this run",
            stacklevel=2,
        )
    return _trajectory(v_in.grid, n_samples, samples)


def _simulate_with_limit(
    state0: FastSlowState, params: ModelParams, T: float, dt: float, sample_every: int
) -> tuple:
    """The trajectories ``simulate(state0, params, T, dt=dt, sample_every=..)``
    and ``solve_limit_system(state0.v, params, T, dt, sample_every)``, stepped
    together.

    Both systems take the same steps, so one ``_time_loop`` steps the stacked
    state (u, v, v_lim) with the block-diagonal propagator of both, and every
    transform pair serves both.  Each trajectory is bit-for-bit the one its
    own solver returns, except that both start at state0.t
    (solve_limit_system starts at 0).
    """
    n_steps, dt = _step_count(T, dt)
    _check_limit_data(params, state0.v)
    n_samples = _sample_count(n_steps, sample_every)
    grid = state0.u.grid
    prop = None
    if n_steps:
        props = [_full_propagator(params, grid, dt), _limit_propagator(params, grid, dt)]
        prop = _block_diagonal(props)
    node_map = None if params.is_linear else partial(_paired_node_map, params)
    y0 = np.stack([state0.u.coeffs, state0.v.coeffs, state0.v.coeffs])
    loop = _time_loop(
        grid, y0, state0.t, n_steps, prop, node_map,
        ("state", "state", "limit system"), sample_every,
    )
    times = np.empty(n_samples)
    full = np.empty((n_samples, 2, grid.N))
    limit = np.empty_like(full)
    for i, (t, y) in enumerate(loop):
        times[i], full[i], limit[i] = t, y[:2], _limit_state(params, grid, y[2])
    return Trajectory(grid, times, full), Trajectory(grid, times, limit)
