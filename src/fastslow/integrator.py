"""Exponential time stepping for the fast-slow system.

The linear part is applied exactly per cosine mode through the 2x2 matrix

    M_k = [[-(d+delta) mu_k - m/eps,  (m-1)/eps],
           [        -delta mu_k,        -d mu_k]]

with m = 2 for the linear reversible reaction (whole system linear, the step
is exact) and m = 1 for the nonlinear kind, where only the -u/eps part of g
is treated linearly and the remainder

    N(u, v) = (kappa f~(u, v)/eps + phi(u, v),  psi(u, v))

is integrated by a second-order exponential Runge-Kutta rule (Cox &
Matthews 2002) with weights h*phi1(h M_k) and h*phi2(h M_k).

That step (``_etd2_step``) and one time loop (``_time_loop``) serve every
solver.  The loop steps one stacked state with one propagator and one node
map over all its rows, and records only the sampled amplitudes; the solvers
build their ``Trajectory`` from them.  ``simulate`` steps the rows (u, v)
with the (2, 2, N) propagator, ``reduction.solve_limit_system`` the row v
with a (1, 1, N) one, and a member of ``rates.convergence_study`` steps the
rows (u, v, v_lim) with the block-diagonal propagator of both, so that one
transform pair per remainder serves both systems.  Every propagator comes
from ``_propagator``, and N is evaluated on the padded nodes through
``spectral_core._dealiased`` (``models.node_remainder`` for the full
system).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .models import ModelParams, node_remainder
from .spectral_core import Grid, SpectralField, _dealiased, _inverse

__all__ = [
    "FastSlowState",
    "ModePropagator",
    "Trajectory",
    "linear_propagator",
    "etd_step",
    "simulate",
    "DEFAULT_CT",
]

DEFAULT_CT = 0.5  # stability fraction: dt <= DEFAULT_CT * eps for the nonlinear kind
BLOWUP_LIMIT = 1e8
PHI_SERIES_CUTOFF = 0.05
EIGEN_GAP_CUTOFF = 1e-8


# ---------------------------------------------------------------------------
# scalar phi functions, cancellation-safe near z = 0

def _phi1(z):
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    nz = z != 0.0
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def _phi2(z):
    z = np.asarray(z, dtype=float)
    out = np.full_like(z, 0.5)
    big = np.abs(z) > PHI_SERIES_CUTOFF
    zb = z[big]
    out[big] = (np.expm1(zb) - zb) / zb**2
    small = ~big
    zs = z[small]
    # sum_{n>=0} z^n / (n+2)!
    acc = np.zeros_like(zs)
    term = np.full_like(zs, 0.5)
    for n in range(12):
        acc = acc + term
        term = term * zs / (n + 3)
    out[small] = acc
    return out


def _dphi1(z):
    z = np.asarray(z, dtype=float)
    out = np.full_like(z, 0.5)
    big = np.abs(z) > PHI_SERIES_CUTOFF
    zb = z[big]
    out[big] = ((zb - 1.0) * np.exp(zb) + 1.0) / zb**2
    small = ~big
    zs = z[small]
    acc = np.zeros_like(zs)
    fact = 2.0  # (m+2)! running
    term = np.full_like(zs, 1.0 / 2.0)  # (m+1)/(m+2)! at m=0
    for m in range(12):
        acc = acc + term
        fact *= m + 3
        term = (m + 2) * zs ** (m + 1) / fact
    out[small] = acc
    return out


def _dphi2(z):
    z = np.asarray(z, dtype=float)
    out = np.full_like(z, 1.0 / 6.0)
    big = np.abs(z) > PHI_SERIES_CUTOFF
    zb = z[big]
    out[big] = ((zb - 2.0) * np.exp(zb) + zb + 2.0) / zb**3
    small = ~big
    zs = z[small]
    acc = np.zeros_like(zs)
    fact = 6.0  # (m+3)! running
    term = np.full_like(zs, 1.0 / 6.0)
    for m in range(12):
        acc = acc + term
        fact *= m + 4
        term = (m + 2) * zs ** (m + 1) / fact
    out[small] = acc
    return out


def _matrix_function(Z, f, df):
    """Apply a scalar function to a stack of real 1x1 or 2x2 matrices.

    ``Z`` has shape (1, 1, n) or (2, 2, n).  A 1x1 stack is f(Z); a 2x2 one
    uses the closed form through the two (real) eigenvalues and falls back
    to the confluent first-order formula when the eigenvalue gap is below
    EIGEN_GAP_CUTOFF.
    """
    if Z.shape[0] == 1:
        return f(Z)
    A, B = Z[0, 0], Z[0, 1]
    C, D = Z[1, 0], Z[1, 1]
    half_tr = 0.5 * (A + D)
    disc = (0.5 * (A - D)) ** 2 + B * C
    disc = np.maximum(disc, 0.0)
    root = np.sqrt(disc)
    z1 = half_tr + root
    z2 = half_tr - root

    out = np.empty_like(Z)
    distinct = (z1 - z2) > EIGEN_GAP_CUTOFF
    if np.any(distinct):
        l1, l2 = z1[distinct], z2[distinct]
        fd = (f(l1) - f(l2)) / (l1 - l2)
        c0 = (f(l2) * l1 - f(l1) * l2) / (l1 - l2)
        for i in range(2):
            for j in range(2):
                out[i, j, distinct] = fd * Z[i, j, distinct] + (c0 if i == j else 0.0)
    conf = ~distinct
    if np.any(conf):
        lbar = half_tr[conf]
        fv, dv = f(lbar), df(lbar)
        for i in range(2):
            for j in range(2):
                diag = lbar if i == j else 0.0
                out[i, j, conf] = dv * (Z[i, j, conf] - diag) + (fv if i == j else 0.0)
    return out


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FastSlowState:
    """Snapshot (u, v) of the fast-slow pair at time t."""

    u: SpectralField
    v: SpectralField
    t: float

    def __post_init__(self):
        if self.u.grid.L != self.v.grid.L or self.u.grid.N != self.v.grid.N:
            raise ConfigurationError("u and v must share one grid")


@dataclass(frozen=True)
class ModePropagator:
    """Per-mode exact propagator E = exp(dt M_k) with ETD weight matrices.

    Arrays have shape (n, n, N) for a system of n fields: (2, 2, N) for the
    full system, (1, 1, N) for the scalar limit system, and (3, 3, N) for
    both stepped together.
    ``W1 = dt phi1(dt M)``, ``W2 = dt phi2(dt M)``.
    """

    dt: float
    M: np.ndarray
    E: np.ndarray
    W1: np.ndarray
    W2: np.ndarray


def _apply(P: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-mode matrix-vector product of P (n, n, N) with y (n, N)."""
    return (P * y).sum(axis=1)


def _system_matrices(params: ModelParams, grid: Grid) -> np.ndarray:
    mu = grid.mu
    M = np.zeros((2, 2, grid.N))
    if params.is_linear:
        M[0, 0] = -(params.d + params.delta) * mu - 2.0 / params.eps
        M[0, 1] = 1.0 / params.eps
    else:
        M[0, 0] = -(params.d + params.delta) * mu - 1.0 / params.eps
    M[1, 0] = -params.delta * mu
    M[1, 1] = -params.d * mu
    return M


def _propagator(M: np.ndarray, dt: float) -> ModePropagator:
    """E = exp(dt M) and the ETD weights of a per-mode symbol M of shape (n, n, N), n <= 2."""
    Z = dt * M
    E = _matrix_function(Z, np.exp, np.exp)
    W1 = dt * _matrix_function(Z, _phi1, _dphi1)
    W2 = dt * _matrix_function(Z, _phi2, _dphi2)
    return ModePropagator(dt=dt, M=M, E=E, W1=W1, W2=W2)


@lru_cache(maxsize=32)
def _cached_propagator(params: ModelParams, grid: Grid, dt: float) -> ModePropagator:
    return _propagator(_system_matrices(params, grid), dt)


def linear_propagator(params: ModelParams, grid: Grid, dt: float) -> ModePropagator:
    """Exact per-mode propagator and ETD weights for time step dt >= 0."""
    if dt < 0:
        raise ConfigurationError(f"time step must be >= 0, got {dt}")
    return _cached_propagator(params, grid, float(dt))


def _full_propagator(params: ModelParams, grid: Grid, dt: float, c_t: float = DEFAULT_CT) -> ModePropagator:
    """The full system's propagator, after the nonlinear kind's bound dt <= c_t eps."""
    if not params.is_linear and dt > c_t * params.eps * (1 + 1e-12):
        raise ConfigurationError(
            f"dt={dt} exceeds the stability bound {c_t}*eps={c_t * params.eps}"
        )
    return linear_propagator(params, grid, dt)


def _full_node_map(params: ModelParams, vals: np.ndarray) -> np.ndarray:
    """node_remainder(u, v) in place of the node values of the first two rows (u, v)."""
    vals[0], vals[1] = node_remainder(params, vals[0], vals[1])
    return vals


def _block_diagonal(props) -> ModePropagator:
    """One propagator for systems stepped together: their blocks on the diagonal."""
    n = sum(p.M.shape[0] for p in props)
    out = {name: np.zeros((n, n, props[0].M.shape[-1])) for name in ("M", "E", "W1", "W2")}
    i = 0
    for p in props:
        k = p.M.shape[0]
        for name, arr in out.items():
            arr[i : i + k, i : i + k] = getattr(p, name)
        i += k
    return ModePropagator(dt=props[0].dt, **out)


def _etd2_step(y: np.ndarray, prop: ModePropagator, remainder) -> np.ndarray:
    """One exponential RK2 step (Cox & Matthews 2002) of y' = M y + N(y)."""
    n0 = remainder(y)
    a = _apply(prop.E, y) + _apply(prop.W1, n0)
    na = remainder(a)
    return a + _apply(prop.W2, na - n0)


def _step_count(T: float, dt: float) -> tuple:
    """Number of steps and the step shrunk so that they land exactly on T."""
    n_steps = max(1, math.ceil(T / dt - 1e-9))
    return n_steps, T / n_steps


def _time_loop(grid, y0, t0, n_steps, prop, node_map, what, sample_every) -> tuple:
    """Step the stacked state y0 (rows, N) ``n_steps`` times from t0.

    Every step applies the one propagator ``prop`` to all rows, and every
    remainder is one transform pair for all rows, with ``node_map``
    overwriting their padded node values by the remainder there (None: the
    remainder is zero).  Returns the sample times and the sampled states,
    shape (n_samples, rows, N): every ``sample_every``-th state, and the
    initial and the final one.  A step whose state leaves
    |y| <= BLOWUP_LIMIT (or is not finite) raises ``DivergenceError`` named
    ``what[r]`` after the first row r that left it; a non-finite value
    spreads to every row through the zeros of a block-diagonal propagator,
    so it is named after the first row.
    """
    if sample_every < 1:
        raise ConfigurationError(f"sample_every must be a positive integer, got {sample_every}")
    if node_map is None:
        remainder = np.zeros_like
    else:
        remainder = partial(_dealiased, grid, node_map=node_map)
    n_samples = 1 + n_steps // sample_every + (n_steps % sample_every != 0)
    times = np.empty(n_samples)
    samples = np.empty((n_samples,) + y0.shape)
    times[0], samples[0] = t0, y0
    i = 0
    y = y0
    for step in range(1, n_steps + 1):
        y = _etd2_step(y, prop, remainder)
        t = t0 + step * prop.dt
        if not np.max(np.abs(y)) <= BLOWUP_LIMIT:
            row = next(r for r in range(len(y)) if not np.max(np.abs(y[r])) <= BLOWUP_LIMIT)
            raise DivergenceError(f"{what[row]} diverged at t={t:.6g}", t=t)
        if step % sample_every == 0 or step == n_steps:
            i += 1
            times[i], samples[i] = t, y
    return times, samples


def etd_step(state: FastSlowState, params: ModelParams, dt: float, c_t: float = DEFAULT_CT) -> FastSlowState:
    """One second-order exponential Runge-Kutta step.

    For the nonlinear kind dt must satisfy dt <= c_t * eps (explicit
    treatment of the kappa f~/eps term); the linear kind has no restriction
    and the step is exact.
    """
    if dt <= 0:
        raise ConfigurationError(f"time step must be positive, got {dt}")
    return simulate(state, params, dt, dt=dt, c_t=c_t).final()


@dataclass
class Trajectory:
    """Sampled states of the fast-slow pair.

    ``coeffs[n, 0]`` and ``coeffs[n, 1]`` are the cosine amplitudes of u and
    v at ``times[n]``; ``coeffs`` has shape (n_samples, 2, N).  The
    node-wise sups ``u1_linf`` of u1 = u and ``u2_linf`` of u2 = v - u per
    sample are computed from ``coeffs`` on first access.
    """

    grid: Grid
    times: np.ndarray
    coeffs: np.ndarray

    @cached_property
    def _sups(self) -> np.ndarray:
        # one sample at a time: the node values of all samples at once would
        # be a temporary as large as the trajectory
        vals = (_inverse(row) for row in self.coeffs)
        return np.array([(np.max(np.abs(u)), np.max(np.abs(v - u))) for u, v in vals]).T

    @property
    def u1_linf(self) -> np.ndarray:
        return self._sups[0]

    @property
    def u2_linf(self) -> np.ndarray:
        return self._sups[1]

    def final(self) -> FastSlowState:
        u, v = self.coeffs[-1]
        return FastSlowState(
            SpectralField(self.grid, u), SpectralField(self.grid, v), float(self.times[-1])
        )


def simulate(
    state0: FastSlowState,
    params: ModelParams,
    T: float,
    dt: float | None = None,
    sample_every: int = 1,
    c_t: float = DEFAULT_CT,
) -> Trajectory:
    """Integrate to time T, recording every ``sample_every``-th step.

    dt defaults to min(c_t * eps, T/1000) and is shrunk so that an integer
    number of steps lands exactly on T.  The final state is always recorded.
    """
    if T < 0:
        raise ConfigurationError(f"final time must be >= 0, got T={T}")
    grid = state0.u.grid
    n_steps, prop = 0, None
    if T > 0:
        if dt is None:
            dt = min(c_t * params.eps, T / 1000.0) if not params.is_linear else T / 1000.0
        n_steps, dt = _step_count(T, dt)
        prop = _full_propagator(params, grid, dt, c_t)
    node_map = None if params.is_linear else partial(_full_node_map, params)
    y0 = np.stack([state0.u.coeffs, state0.v.coeffs])
    times, samples = _time_loop(
        grid, y0, state0.t, n_steps, prop, node_map, ("state", "state"), sample_every
    )
    return Trajectory(grid, times, samples)
