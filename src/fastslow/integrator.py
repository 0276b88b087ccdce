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
solver.  The loop steps a stack of systems ("blocks") that share the step:
``simulate`` is the one-block case (u, v), ``reduction.solve_limit_system``
the one-block case v with a (1, 1, N) propagator, and a member of
``rates.convergence_study`` steps both systems together as the rows
(u, v, v_lim) with a block-diagonal propagator, so that one transform pair
per remainder serves both.  N is evaluated on the padded nodes by each
block's node map (``models.node_remainder`` for the full system).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .models import ModelParams, node_remainder
from .spectral_core import Grid, SpectralField, _forward, _inverse

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
    """Apply a scalar function to a stack of real 2x2 matrices.

    ``Z`` has shape (2, 2, n).  Uses the closed form through the two (real)
    eigenvalues; falls back to the confluent first-order formula when the
    eigenvalue gap is below EIGEN_GAP_CUTOFF.
    """
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
    full system, (1, 1, N) for the scalar limit system.
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


@lru_cache(maxsize=32)
def _cached_propagator(params: ModelParams, grid: Grid, dt: float) -> ModePropagator:
    M = _system_matrices(params, grid)
    Z = dt * M
    if dt == 0.0:
        eye = np.zeros_like(M)
        eye[0, 0] = eye[1, 1] = 1.0
        return ModePropagator(dt=dt, M=M, E=eye, W1=np.zeros_like(M), W2=np.zeros_like(M))
    E = _matrix_function(Z, np.exp, np.exp)
    W1 = dt * _matrix_function(Z, _phi1, _dphi1)
    W2 = dt * _matrix_function(Z, _phi2, _dphi2)
    return ModePropagator(dt=dt, M=M, E=E, W1=W1, W2=W2)


def linear_propagator(params: ModelParams, grid: Grid, dt: float) -> ModePropagator:
    """Exact per-mode propagator and ETD weights for time step dt >= 0."""
    if dt < 0:
        raise ConfigurationError(f"time step must be >= 0, got {dt}")
    return _cached_propagator(params, grid, float(dt))


@dataclass(frozen=True)
class _Block:
    """One system stepped by ``_time_loop``, owning ``size`` rows of the stacked state.

    ``prop`` is its (size, size, N) propagator (None when no step is taken);
    ``node_map`` overwrites the padded node values of its rows with its
    remainder at those nodes (None: the remainder is zero); ``record`` maps
    its rows to the stored (u, v) amplitude pair of shape (2, N); ``what``
    names it in a divergence error.
    """

    size: int
    prop: ModePropagator | None
    node_map: Callable | None
    record: Callable
    what: str


def _full_node_map(params: ModelParams, vals: np.ndarray) -> None:
    vals[0], vals[1] = node_remainder(params, vals[0], vals[1])


def _full_block(params: ModelParams, grid: Grid, dt: float | None, c_t: float = DEFAULT_CT) -> _Block:
    """The full system (u, v) as a block of ``_time_loop``; dt None takes no step."""
    prop = None
    if dt is not None:
        if not params.is_linear and dt > c_t * params.eps * (1 + 1e-12):
            raise ConfigurationError(
                f"dt={dt} exceeds the stability bound {c_t}*eps={c_t * params.eps}"
            )
        prop = linear_propagator(params, grid, dt)
    node_map = None if params.is_linear else partial(_full_node_map, params)
    return _Block(2, prop, node_map, record=lambda y: y, what="state")


def _block_diagonal(props) -> ModePropagator:
    """One propagator for systems stepped together: their blocks on the diagonal."""
    n = sum(p.E.shape[0] for p in props)

    def stack(name):
        out = np.zeros((n, n, props[0].E.shape[-1]))
        i = 0
        for p in props:
            k = p.E.shape[0]
            out[i : i + k, i : i + k] = getattr(p, name)
            i += k
        return out

    return ModePropagator(
        dt=props[0].dt, M=stack("M"), E=stack("E"), W1=stack("W1"), W2=stack("W2")
    )


def _remainder(grid: Grid, node_maps, y: np.ndarray) -> np.ndarray:
    """Dealiased remainder coefficients of all rows of y in one transform pair.

    ``node_maps`` pairs each block's rows with its node map (None: zero).
    """
    vals = _inverse(y, n_nodes=grid.padded_size)
    for rows, node_map in node_maps:
        if node_map is None:
            vals[rows] = 0.0
        else:
            node_map(vals[rows])
    return _forward(vals)[:, : grid.N]


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


def _time_loop(grid, y0, t0, n_steps, blocks, sample_every) -> list:
    """Step the stacked state y0 ``n_steps`` times from t0; one Trajectory per block.

    The blocks own consecutive rows of y0 and share every step: one
    block-diagonal propagator and one transform pair per remainder serve
    them all.  Each block records every ``sample_every``-th state, and the
    initial and the final one, as its (u, v) amplitude pair with the
    node-wise sups of u and v - u.  A step whose state leaves
    |y| <= BLOWUP_LIMIT (or is not finite) raises ``DivergenceError`` named
    after the first block that left it; a non-finite value spreads to every
    block through the zeros of the block-diagonal propagator, so it is
    named after the first block.
    """
    rows, start = [], 0
    for block in blocks:
        rows.append(slice(start, start + block.size))
        start += block.size
    if all(block.node_map is None for block in blocks):
        remainder = np.zeros_like
    else:
        node_maps = [(r, block.node_map) for r, block in zip(rows, blocks)]
        remainder = partial(_remainder, grid, node_maps)
    prop = None
    if n_steps:
        props = [block.prop for block in blocks]
        prop = props[0] if len(props) == 1 else _block_diagonal(props)

    n_samples = 1 + n_steps // sample_every + (n_steps % sample_every != 0)
    times = np.empty(n_samples)
    samples = [
        (np.empty((n_samples, 2, grid.N)), np.empty(n_samples), np.empty(n_samples))
        for _ in blocks
    ]

    def store(i, t, y):
        times[i] = t
        for block, r, (coeffs, u1_linf, u2_linf) in zip(blocks, rows, samples):
            coeffs[i] = block.record(y[r])
            vals = _inverse(coeffs[i])
            u1_linf[i] = np.max(np.abs(vals[0]))
            u2_linf[i] = np.max(np.abs(vals[1] - vals[0]))

    store(0, t0, y0)
    i = 0
    y = y0
    for step in range(1, n_steps + 1):
        y = _etd2_step(y, prop, remainder)
        t = t0 + step * prop.dt
        if not np.max(np.abs(y)) <= BLOWUP_LIMIT:
            what = next(
                block.what for block, r in zip(blocks, rows)
                if not np.max(np.abs(y[r])) <= BLOWUP_LIMIT
            )
            raise DivergenceError(f"{what} diverged at t={t:.6g}", t=t)
        if step % sample_every == 0 or step == n_steps:
            i += 1
            store(i, t, y)
    return [Trajectory(grid, times.copy(), *arrays) for arrays in samples]


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
    """Sampled states plus the running node-wise sup of u1 = u and u2 = v - u.

    ``coeffs[n, 0]`` and ``coeffs[n, 1]`` are the cosine amplitudes of u and
    v at ``times[n]``; ``coeffs`` has shape (n_samples, 2, N).
    """

    grid: Grid
    times: np.ndarray
    coeffs: np.ndarray
    u1_linf: np.ndarray
    u2_linf: np.ndarray

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
    if sample_every < 1:
        raise ConfigurationError(f"sample_every must be a positive integer")
    grid = state0.u.grid
    y0 = np.stack([state0.u.coeffs, state0.v.coeffs])
    n_steps = 0
    if T > 0:
        if dt is None:
            dt = min(c_t * params.eps, T / 1000.0) if not params.is_linear else T / 1000.0
        n_steps, dt = _step_count(T, dt)
    block = _full_block(params, grid, dt if n_steps else None, c_t)
    return _time_loop(grid, y0, state0.t, n_steps, [block], sample_every)[0]
