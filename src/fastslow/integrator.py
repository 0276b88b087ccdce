"""Exponential time stepping for the fast-slow system.

The linear part is applied exactly per cosine mode through the 2x2 matrix

    M_k = [[-(d+delta) mu_k - m/eps,  (m-1)/eps],
           [        -delta mu_k,        -d mu_k]]

with m = 2 for the linear reversible reaction (whole system linear, the step
is exact) and m = 1 for the nonlinear kind, where only the -u/eps part of g
is treated linearly and the remainder

    N(u, v) = (kappa f~(u, v)/eps + phi(u, v),  psi(u, v))

is integrated by a second-order exponential Runge-Kutta rule (Cox &
Matthews 2002) with weights h*phi1(h M_k) and h*phi2(h M_k).  These and the
Lyapunov-Perron weights come from one family phi_k (``_phi``; Hochbruck &
Ostermann 2010), and ``_matrix_phi`` splits each 2x2 symbol once for all k.

That step (``_etd2_step``) and one time loop (``_time_loop``) serve every
solver.  The loop steps one stacked state with one propagator and one node
map over all its rows.  ``simulate`` steps the rows (u, v) with the
(2, 2, N) propagator, ``reduction.solve_limit_system`` the row v with a
(1, 1, N) one, and a member of ``rates.convergence_study`` (in the
calling process or a forked child when two or more CPUs are usable)
steps the rows (u, v, v_lim) with the block-diagonal propagator of both,
so that one transform pair per remainder serves both systems.  Every
propagator comes from ``_propagator``, and N is evaluated on the padded
nodes through ``spectral_core._dealiased`` (``models.node_remainder`` for
the full system).

The loop is a generator of samples (t, y): it yields each sampled state as
it is reached and keeps none.  The solvers fill their ``Trajectory`` from
the samples, one preallocated array per run.  The CLI's ``simulate`` and
``limit`` commands read the same samples (``_simulate_samples``,
``reduction._limit_samples``) and reduce each one to its CSV row, so they
never hold a trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .models import ModelParams, node_remainder
from .spectral_core import Grid, SpectralField, _dealiased, _permuted_inverse

__all__ = [
    "FastSlowState",
    "ModePropagator",
    "Trajectory",
    "linear_propagator",
    "simulate",
    "DEFAULT_CT",
]

DEFAULT_CT = 0.5  # stability fraction: dt <= DEFAULT_CT * eps for the nonlinear kind
BLOWUP_LIMIT = 1e8
PHI_SERIES_CUTOFF = 0.05
EIGEN_GAP_CUTOFF = 1e-8


# ---------------------------------------------------------------------------
# the phi functions phi_k(z) = sum_{n>=0} z^n / (n+k)!, cancellation-safe near z = 0

def _phi(k: int, z):
    """phi_k(z) elementwise: exp(z), expm1(z)/z (1 at z = 0), and for k >= 2
    (expm1(z) - sum_{0<j<k} z^j/j!) / z^k where |z| > PHI_SERIES_CUTOFF and
    12 terms of the series elsewhere."""
    z = np.asarray(z, dtype=float)
    if k == 0:
        return np.exp(z)
    if k == 1:
        out = np.ones_like(z)
        nz = z != 0.0
        out[nz] = np.expm1(z[nz]) / z[nz]
        return out
    out = np.empty_like(z)
    big = np.abs(z) > PHI_SERIES_CUTOFF
    zb = z[big]
    acc = np.expm1(zb)
    term = np.ones_like(zb)
    for j in range(1, k):
        term = term * zb / j
        acc = acc - term
    out[big] = acc / zb**k
    small = ~big
    zs = z[small]
    acc = np.zeros_like(zs)
    term = np.full_like(zs, 1.0 / math.factorial(k))
    for n in range(12):
        acc = acc + term
        term = term * zs / (n + k + 1)
    out[small] = acc
    return out


def _matrix_phi(ks, Z) -> list:
    """phi_k(Z) for each k in ``ks``, for a stack Z of real 1x1 or 2x2 matrices.

    ``Z`` has shape (1, 1, n) or (2, 2, n).  A 1x1 stack is phi_k(Z).  A 2x2
    one has its two (real) eigenvalues found once for all k and uses the
    closed form through them; where their gap is below EIGEN_GAP_CUTOFF it
    uses the confluent first-order formula, with phi_k' = phi_k - k phi_{k+1}.
    """
    if Z.shape[0] == 1:
        return [_phi(k, Z) for k in ks]
    A, B = Z[0, 0], Z[0, 1]
    C, D = Z[1, 0], Z[1, 1]
    half_tr = 0.5 * (A + D)
    disc = (0.5 * (A - D)) ** 2 + B * C
    disc = np.maximum(disc, 0.0)
    root = np.sqrt(disc)
    z1 = half_tr + root
    z2 = half_tr - root
    distinct = (z1 - z2) > EIGEN_GAP_CUTOFF
    conf = ~distinct
    l1, l2 = z1[distinct], z2[distinct]
    lbar = half_tr[conf]
    outs = []
    for k in ks:
        out = np.empty_like(Z)
        if np.any(distinct):
            f1, f2 = _phi(k, l1), _phi(k, l2)
            fd = (f1 - f2) / (l1 - l2)
            c0 = (f2 * l1 - f1 * l2) / (l1 - l2)
            for i in range(2):
                for j in range(2):
                    out[i, j, distinct] = fd * Z[i, j, distinct] + (c0 if i == j else 0.0)
        if np.any(conf):
            fv = _phi(k, lbar)
            dv = fv - k * _phi(k + 1, lbar)
            for i in range(2):
                for j in range(2):
                    diag = lbar if i == j else 0.0
                    out[i, j, conf] = dv * (Z[i, j, conf] - diag) + (fv if i == j else 0.0)
        outs.append(out)
    return outs


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
    E, phi1, phi2 = _matrix_phi((0, 1, 2), dt * M)
    return ModePropagator(dt=dt, M=M, E=E, W1=dt * phi1, W2=dt * phi2)


@lru_cache(maxsize=32)
def _cached_propagator(params: ModelParams, grid: Grid, dt: float) -> ModePropagator:
    return _propagator(_system_matrices(params, grid), dt)


def linear_propagator(params: ModelParams, grid: Grid, dt: float) -> ModePropagator:
    """Exact per-mode propagator and ETD weights for a finite time step dt >= 0."""
    if not 0 <= dt < math.inf:
        raise ConfigurationError(f"time step must be finite and >= 0, got {dt}")
    return _cached_propagator(params, grid, float(dt))


def _full_propagator(params: ModelParams, grid: Grid, dt: float) -> ModePropagator:
    """The full system's propagator, after the nonlinear kind's bound dt <= DEFAULT_CT eps."""
    if not params.is_linear and dt > DEFAULT_CT * params.eps * (1 + 1e-12):
        raise ConfigurationError(
            f"dt={dt} exceeds the stability bound {DEFAULT_CT}*eps={DEFAULT_CT * params.eps}"
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


def _etd2_step(y: np.ndarray, prop: ModePropagator, remainder) -> tuple:
    """One exponential RK2 step (Cox & Matthews 2002) of y' = M y + N(y).

    Returns the new state and the step's intermediates (n0, a, na), in the
    order they are computed.
    """
    n0 = remainder(y)
    a = _apply(prop.E, y) + _apply(prop.W1, n0)
    na = remainder(a)
    return a + _apply(prop.W2, na - n0), (n0, a, na)


def _diverged_row(y: np.ndarray, intermediates) -> int:
    """The row of a step's new state y to blame for leaving |y| <= BLOWUP_LIMIT.

    A non-finite value spreads to every row through the zeros of a
    block-diagonal propagator (0 * nan), but each intermediate's rows stay
    apart as long as the ones before it are finite.  So the blame goes to
    the first non-finite row of the first non-finite intermediate, and
    otherwise to the first row of y that left the bound.
    """
    for part in intermediates:
        bad = ~np.isfinite(part).all(axis=-1)
        if bad.any():
            return int(np.argmax(bad))
    return int(np.argmax(~(np.max(np.abs(y), axis=-1) <= BLOWUP_LIMIT)))


def _step_count(T: float, dt: float) -> tuple:
    """Number of steps to T, and the step shrunk so that they land exactly on it.

    The one check of every solver's horizon and step: T must be finite and
    >= 0 and, for T > 0, dt finite and positive, or ``ConfigurationError``
    is raised.  T = 0 takes no step, whatever dt: (0, None).
    """
    if not 0 <= T < math.inf:
        raise ConfigurationError(f"final time must be finite and >= 0, got T={T}")
    if T == 0:
        return 0, None
    if not 0 < dt < math.inf or not T / dt < math.inf:
        raise ConfigurationError(f"time step must be finite and positive, got dt={dt}")
    n_steps = max(1, math.ceil(T / dt - 1e-9))
    return n_steps, T / n_steps


def _sample_count(n_steps: int, sample_every: int) -> int:
    """Samples of an ``n_steps`` run: every ``sample_every``-th state, the
    initial and the final one."""
    if sample_every < 1:
        raise ConfigurationError(f"sample_every must be a positive integer, got {sample_every}")
    return 1 + n_steps // sample_every + (n_steps % sample_every != 0)


def _time_loop(grid, y0, t0, n_steps, prop, node_map, what, sample_every):
    """Step the stacked state y0 (rows, N) ``n_steps`` times from t0, yielding samples.

    Every step applies the one propagator ``prop`` to all rows, and every
    remainder is one transform pair for all rows, with ``node_map``
    overwriting their padded node values by the remainder there (None: the
    remainder is zero).  Yields (t, y) for the initial state, every
    ``sample_every``-th one and the final one: ``_sample_count(n_steps,
    sample_every)`` samples, a count that its callers take first, since it
    also checks ``sample_every``.  Each y after y0 is a new array that the
    loop does not touch again.  A step whose state leaves
    |y| <= BLOWUP_LIMIT (or is not finite) raises ``DivergenceError`` named
    ``what[r]`` after the row r that first left it (``_diverged_row``).
    """
    if node_map is None:
        remainder = np.zeros_like
    else:
        remainder = partial(_dealiased, grid, node_map=node_map)
    yield t0, y0
    y = y0
    for step in range(1, n_steps + 1):
        y, intermediates = _etd2_step(y, prop, remainder)
        t = t0 + step * prop.dt
        if not np.max(np.abs(y)) <= BLOWUP_LIMIT:
            row = _diverged_row(y, intermediates)
            raise DivergenceError(f"{what[row]} diverged at t={t:.6g}", t=t)
        # free them before the next step allocates its own: held across it,
        # they slowed the N=4096 stepping by about 6 %
        del intermediates
        if step % sample_every == 0 or step == n_steps:
            yield t, y


def _sample_sups(grid: Grid, y: np.ndarray) -> tuple:
    """The node sups of u1 = u and of u2 = v - u of one sample y = (u, v)."""
    # a sup does not depend on the node order, so the values stay in the
    # permuted order of the real FFT inverse
    u, v = _permuted_inverse(y, grid.N)
    return np.max(np.abs(u)), np.max(np.abs(v - u))


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
        return np.array([_sample_sups(self.grid, row) for row in self.coeffs]).T

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


def _trajectory(grid: Grid, n_samples: int, samples) -> Trajectory:
    """The trajectory of ``n_samples`` samples (t, y), y = (u, v), filled in as they arrive."""
    times = np.empty(n_samples)
    coeffs = np.empty((n_samples, 2, grid.N))
    for i, (t, y) in enumerate(samples):
        times[i], coeffs[i] = t, y
    return Trajectory(grid, times, coeffs)


def _simulate_samples(state0: FastSlowState, params: ModelParams, T, dt, sample_every) -> tuple:
    """The number of samples of ``simulate`` and an iterator over them, (t, (u, v)).

    Everything is checked before it returns; the steps are taken as the
    iterator is read.
    """
    if dt is None:
        dt = T / 1000.0 if params.is_linear else min(DEFAULT_CT * params.eps, T / 1000.0)
    n_steps, dt = _step_count(T, dt)
    n_samples = _sample_count(n_steps, sample_every)
    grid = state0.u.grid
    prop = _full_propagator(params, grid, dt) if n_steps else None
    node_map = None if params.is_linear else partial(_full_node_map, params)
    y0 = np.stack([state0.u.coeffs, state0.v.coeffs])
    samples = _time_loop(
        grid, y0, state0.t, n_steps, prop, node_map, ("state", "state"), sample_every
    )
    return n_samples, samples


def simulate(
    state0: FastSlowState,
    params: ModelParams,
    T: float,
    dt: float | None = None,
    sample_every: int = 1,
) -> Trajectory:
    """Integrate to time T, recording every ``sample_every``-th step.

    dt defaults to min(DEFAULT_CT eps, T/1000) and is shrunk so that an
    integer number of steps lands exactly on T.  The final state is always
    recorded.
    """
    return _trajectory(state0.u.grid, *_simulate_samples(state0, params, T, dt, sample_every))
