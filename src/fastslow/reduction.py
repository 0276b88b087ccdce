"""Critical manifold map, limit system, initial layer, constants chain and
invariant-box bounds.

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
(``_simulate_with_limit``), on one band of modes with one transform pair
per remainder.  Its band is chosen from (h_kappa(v_in), v_in) at the
start (``_limit_system``).  The loop steps v only; each sample's u = h_kappa(v)
is reconstructed from its v as the sample arrives (``_limit_state``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError, DomainError
from .integrator import (
    FastSlowState,
    ModePropagator,
    Trajectory,
    _full_propagator,
    _propagator,
    _sample_count,
    _step_count,
    _System,
    _time_loop,
    _trajectory,
)
from .models import ModelParams, _competition, _reaction_gradients, node_psi
from .spectral_core import Grid, SpectralField, _dealiased, nonlinear_eval

__all__ = [
    "ConstantsReport",
    "InitialLayerReport",
    "critical_map_u_of_v",
    "initial_layer",
    "lipschitz_estimates",
    "theoretical_constants",
    "solve_limit_system",
]

NODE_TOL = 1e-12
# Factor on the numeric smoothing constant, a lower bound, in ``theoretical_constants``.
HS_INFLATION = 1.5
# Relative margin on the sup-norm bounds of ``_estimate_smoothing_constant``:
# a computed ratio can exceed its bound, a sum of magnitudes, only by the
# rounding of a 48-term product and a few operations (about 1e-14
# relative), so a t is skipped only when not even that rounding could let
# its ratio reach the maximum.
_BOUND_MARGIN = 1e-9
# e^{lambda_1 t} at the estimate's last t = 1 overflows beyond this exponent
_EXP_MAX = math.log(sys.float_info.max)


# 0-d operands of ``_critical_pointwise``'s ufunc calls (see ModelParams._node_scalars)
_ZERO, _ONE = np.array(0.0), np.array(1.0)
_ZERO.flags.writeable = _ONE.flags.writeable = False


def _critical_pointwise(v: np.ndarray, kappa: float, out=None, temp=None) -> np.ndarray:
    """h_kappa(max(v, 0)) = 4 kappa v^2 / (1 + sqrt(1 + 4 kappa v))^2 at node
    values, written into ``out`` (which may be v) with the temporary
    denominator in ``temp`` (new arrays where not given)."""
    u = np.maximum(v, _ZERO, out=np.empty_like(v) if out is None else out)
    # in the order of the written formula and so with its bits: v**2 is
    # np.square, and IEEE products and sums commute
    four_kappa = np.array(4.0 * kappa)
    s = np.multiply(u, four_kappa, out=np.empty_like(u) if temp is None else temp)
    s += _ONE
    np.sqrt(s, out=s)
    s += _ONE
    np.square(u, out=u)
    u *= four_kappa
    np.square(s, out=s)
    u /= s
    return u


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
    and the ratio ||u_in - u0||_H2 / eps_in.  Raises ``ConfigurationError``
    where eps_in leaves the floats (kappa = 1e300, say).
    """
    if params.is_linear:
        residual = v_in - 2.0 * u_in
        u0 = 0.5 * v_in
    else:
        u_vals, v_vals = u_in.values(), v_in.values()
        if np.min(u_vals) < -NODE_TOL or np.min(v_vals - u_vals) < -NODE_TOL:
            raise DomainError("initial data must satisfy v_in >= u_in >= 0 pointwise")
        with np.errstate(over="ignore", invalid="ignore"):
            residual = nonlinear_eval([u_in, v_in], lambda x, y: -x + params.kappa * (y - x) ** 2)
        u0 = critical_map_u_of_v(v_in, params.kappa)
    with np.errstate(over="ignore"):
        eps_in = residual.sobolev_norm(2)
    if not eps_in < math.inf:
        raise ConfigurationError(
            "eps_in, the H2 norm of the initial data's constraint residual, is beyond the "
            "range of floats"
        )
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


def _corner_table(params: ModelParams, K0: float):
    """(phi_x, phi_y, psi_x, psi_y) at the four corners of the invariant box
    [0, K0]^2.  Each is affine in (x, y), so the supremum over the box of its
    magnitude, or of a sum of such magnitudes, is attained at a corner."""
    x = np.array([0.0, 0.0, K0, K0])
    y = np.array([0.0, K0, 0.0, K0])
    return _reaction_gradients(params, x, y)


def _estimate_smoothing_constant(d, L):
    """Numeric lower bound for the heat-smoothing constant of eq-type

        || e^{t d dxx} w_x ||_p <= C e^{-lambda_1 t} t^{-1/2} || w ||_p

    maximized over 200 random fields on 48 modes, sampled at 512 points, 40
    log-spaced t in [1e-3, 1] and p in {2, inf}.  The fields are drawn from
    ``default_rng(0)``, so the bound is a function of (d, L) alone.

    The L2 ratio of every t is computed; the sup-norm ratio, a (200, 48) @
    (48, 512) product each, only at the t that can still set the maximum.
    The sine amplitudes st_fk of field f at time t bound its sup norm from
    above by sum_k |st_fk|, so the sup-norm ratio at t is at most

        bound(t) = max_f sum_k |st_fk| / ||w_f||_inf * sqrt(t) e^{lambda_1 t},

    all 40 of them from one (200, 48) @ (48, 40) product of |s| with the
    decay table.  The t are visited in decreasing bound, each evaluated by
    the exhaustive loop's own expression, until a bound falls below the
    maximum so far (up to ``_BOUND_MARGIN``); every later t has a smaller
    bound and so cannot raise the maximum.  The result is the maximum over
    all 80 ratios bit for bit (``tests/oracles.py`` keeps that loop); at
    (d, L) = (1, pi) one product runs.
    """
    rng = np.random.default_rng(0)
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
    ts = np.logspace(-3, 0, 40)
    decay = np.exp(-d * (k * np.pi / L) ** 2 * ts[:, None])  # row i: the decay at ts[i]
    scales = [math.sqrt(t) * math.exp(lam1 * t) for t in ts]
    best = 0.0
    for row, scale in zip(decay, scales):
        st = s * row
        n_l2 = np.sqrt((L / 2) * np.sum(st**2, axis=1))
        best = max(best, float(np.max(n_l2 / w_l2)) * scale)
    bounds = np.max((np.abs(s) @ decay.T) / w_linf[:, None], axis=0) * scales
    # the node values of one t; a fresh array of this size each time can be
    # mapped anew by the allocator, one page fault per page
    vals = np.empty((n_fields, fine))
    for i in np.argsort(-bounds, kind="stable"):
        if bounds[i] * (1.0 + _BOUND_MARGIN) < best:
            break
        st = s * decay[i]
        n_linf = np.max(np.abs(np.matmul(st, sin_tab, out=vals), out=vals), axis=1)
        best = max(best, float(np.max(n_linf / w_linf)) * scales[i])
    return best


def theoretical_constants(params: ModelParams, M: float) -> ConstantsReport:
    """Embedding constant, smoothing estimate and the K-chain for radius M.

    C_star = sqrt(coth(L)) is the sharp sup-norm embedding constant of
    H1(0, L) (reproducing-kernel closed form); C_HS is a numeric lower bound
    inflated by HS_INFLATION and is only used for the conservative
    admissibility report, never by the solvers.  The smoothing estimate
    scales by e^{lambda_1 t} up to t = 1, which overflows for
    L < pi / sqrt(ln(max float)) ~ 0.1179: such an L raises
    ``ConfigurationError`` before any work.
    """
    if not 0 < M < math.inf:
        raise ConfigurationError(f"ball radius must be finite and positive, got M={M}")
    L = params.L
    lam1 = (math.pi / L) ** 2
    if not lam1 <= _EXP_MAX:
        raise ConfigurationError(
            f"the constants chain needs a domain length L >= pi/sqrt(ln(max float)) = "
            f"{math.pi / math.sqrt(_EXP_MAX):.6g}, got L={L}: the smoothing estimate's "
            f"e^(lambda_1 t) overflows at t = 1"
        )
    C_star = math.sqrt(1.0 / math.tanh(L))
    C_HS = HS_INFLATION * _estimate_smoothing_constant(params.d, L)
    a, b, c = params.a, params.b, params.c
    K0 = C_star * M + (a / c if c > 0 else 0.0)
    root = math.sqrt(math.pi / lam1)
    # psi(x, y) = (a - b x - c y) y is affine in x, quadratic in y: the
    # maximum of |psi| over the box sits at x in {0, K0} and y at an
    # endpoint or, for c > 0, the interior critical point (a - b x) / (2 c)
    x = np.array([0.0, K0, 0.0, K0, 0.0, K0])
    y_crit = np.clip((a - b * x[:2]) / (2 * c), 0.0, K0) if c > 0 else np.full(2, K0)
    y = np.concatenate([[0.0, 0.0, K0, K0], y_crit])
    sup_psi = float(np.max(np.abs(node_psi(params, x, y))))
    _, _, psi_x, psi_y = _corner_table(params, K0)
    sup_dpsi = float(np.max(np.abs(psi_x)) + np.max(np.abs(psi_y)))
    K1 = C_star * M + C_HS * root * sup_psi
    K2 = M + 3.0 * C_HS * root * sup_dpsi * math.sqrt(L) * K1
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


def lipschitz_estimates(params: ModelParams, M: float, constants=None):
    """Scalar Lipschitz budgets (L_f, L_phi, L_psi) on the invariant box.

    L_f = kappa * 12 * C_star * K_M with the constants chain of
    :func:`theoretical_constants`; L_phi and L_psi are the suprema of the l1
    gradient norms of phi, psi over the box [0, K_{0,M}]^2, read from its
    corners (``_corner_table``).

    ``constants`` may carry a precomputed report (or anything with
    ``C_star``, ``K_M`` and ``K0`` attributes); otherwise the chain is
    evaluated from ``params`` and ``M``.

    For the linear kind returns (0.5, 0, 0): the coupling f = v measured
    against the doubled diagonal decay -2u/eps, normalized to the unit decay
    used by the spectral-gap formula.
    """
    if not 0 < M < math.inf:
        raise ConfigurationError(f"ball radius must be finite and positive, got M={M}")
    if params.is_linear:
        return 0.5, 0.0, 0.0
    if constants is None:
        constants = theoretical_constants(params, M)
    L_f = params.kappa * 12.0 * constants.C_star * constants.K_M
    phi_x, phi_y, psi_x, psi_y = _corner_table(params, constants.K0)
    L_phi = float(np.max(np.abs(phi_x) + np.abs(phi_y)))
    L_psi = float(np.max(np.abs(psi_x) + np.abs(psi_y)))
    return L_f, L_phi, L_psi


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
    v = vals[-1]
    work = np.empty((3,) + v.shape)
    # h_kappa(v) in the row of the work buffer that node_psi leaves alone
    h = _critical_pointwise(v, params.kappa, work[2], work[0])
    vals[-1] = node_psi(params, h, v, v, work)
    return vals


def _paired_node_map(params: ModelParams, vals: np.ndarray) -> np.ndarray:
    """The remainders of a convergence member's rows (u, v, v_lim) in place
    of their node values: ``_full_node_map``'s in rows u and v and
    ``_limit_node_map``'s in row v_lim, with their bits.

    h = h_kappa(v_lim) is formed once, the Lotka-Volterra factors of both
    systems in one set of ufunc calls over the pairs x = (u, h) and
    y = (v, v_lim), and psi goes into both rows of y with one multiply.  It
    forms no value that the two maps do not form (``node_remainder`` on the
    pairs would also square v_lim - h), so it raises no floating-point
    warning that they do not raise.
    """
    u, v, y = vals[0], vals[1], vals[1:]
    work = np.empty((4,) + u.shape)
    x = work[:2]
    x[0] = u  # beside h, so that one call forms both factors
    _critical_pointwise(vals[2], params.kappa, x[1], work[2])
    lv = _competition(params, x, y, x, work[2:])
    # kappa f~/eps + phi in row u, as node_remainder forms it
    w = np.subtract(v, u, out=work[2])
    w *= w
    w *= params._node_scalars[3]
    np.multiply(lv[0], u, out=u)
    u += w
    np.multiply(lv, y, out=y)
    return vals


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


def _limit_system(params: ModelParams, v_in: SpectralField, prop) -> _System:
    """The limit system's ``_System``: the row v, whose band at the start is
    that of the state (h_kappa(v_in), v_in).  h_kappa is not polynomial, so its
    amplitudes can reach far past those of v_in (data with a few cosine
    modes), and the band must hold the remainder's first step."""
    start = _limit_state(params, v_in.grid, v_in.coeffs)
    return _System(v_in.coeffs[None], prop, "limit system", start)


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
    system = _limit_system(params, v_in, prop)
    loop = _time_loop(grid, 0.0, n_steps, [system], node_map, sample_every)
    return n_samples, ((t, _limit_state(params, grid, y[0])) for t, y in loop)


def solve_limit_system(
    v_in: SpectralField,
    params: ModelParams,
    T: float,
    dt: float | None = None,
    sample_every: int = 1,
) -> Trajectory:
    """Integrate the reduced system dv/dt = d v_xx + psi(h_kappa(v), v).

    Uses the exponential RK2 stepper with the scalar symbol -d mu_k (for the
    linear kind the reduced symbol is -(d + delta/2) mu_k and the step is
    exact).  dt defaults to T/1000 and is shrunk so that an integer number
    of steps lands exactly on T.  Returns a trajectory whose u-component is
    h_kappa(v) at every sample.
    """
    n_samples, samples = _limit_samples(v_in, params, T, dt, sample_every)
    return _trajectory(v_in.grid, n_samples, samples)


def _simulate_with_limit(
    state0: FastSlowState, params: ModelParams, T: float, dt: float, sample_every: int
) -> tuple:
    """The trajectories ``simulate(state0, params, T, dt=dt, sample_every=..)``
    and ``solve_limit_system(state0.v, params, T, dt, sample_every)``, stepped
    together.

    Both systems take the same steps, so one ``_time_loop`` steps them, the
    stacked rows (u, v, v_lim) with the block-diagonal propagator of both,
    one band of modes, the wider of the two systems' bands, and one
    transform pair and one ``_paired_node_map`` call per remainder.  Where
    the two bands agree, each trajectory is bit-for-bit the one its own
    solver returns, except that both start at state0.t (solve_limit_system
    starts at 0); where they differ, the narrower system's moves from it by
    roundoff.
    """
    n_steps, dt = _step_count(T, dt)
    _check_limit_data(params, state0.v)
    n_samples = _sample_count(n_steps, sample_every)
    grid = state0.u.grid
    full_prop = limit_prop = None
    if n_steps:
        full_prop = _full_propagator(params, grid, dt)
        limit_prop = _limit_propagator(params, grid, dt)
    node_map = None if params.is_linear else partial(_paired_node_map, params)
    systems = [
        _System(np.stack([state0.u.coeffs, state0.v.coeffs]), full_prop, "state"),
        _limit_system(params, state0.v, limit_prop),
    ]
    loop = _time_loop(grid, state0.t, n_steps, systems, node_map, sample_every)
    times = np.empty(n_samples)
    full = np.empty((n_samples, 2, grid.N))
    limit = np.empty_like(full)
    for i, (t, y) in enumerate(loop):
        times[i], full[i], limit[i] = t, y[:2], _limit_state(params, grid, y[2])
    return Trajectory(grid, times, full), Trajectory(grid, times, limit)
