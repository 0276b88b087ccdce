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
solver.  The loop steps one or two systems (``_System``): ``simulate`` the
rows (u, v) with the (2, 2, N) propagator, ``reduction.solve_limit_system``
the row v with a (1, 1, N) one, and a member of
``rates.convergence_study`` (in the calling process or a forked child when
two or more CPUs are usable) both, in step.  Every propagator comes from
``_propagator``, and N is evaluated on padded nodes by a node map that
overwrites the node values in place: ``_full_node_map``
(``models.node_remainder``) for the full system,
``reduction._limit_node_map`` for the limit system, and
``reduction._paired_node_map`` for a member's three rows (u, v, v_lim)
while its two systems share one band.

The solutions are smooth, so their cosine amplitudes reach the roundoff
floor within a few modes, and a spectral method truncates there (Boyd,
*Chebyshev and Fourier Spectral Methods*, 2001, ch. 2).  So each system
steps on its own band of its first K modes (``_Band``), a power of two
from 8 to N: the smallest whose modes >= K/4 hold at most ``_BAND_TOL``
(1e-15, the transforms' own roundoff) times the system's largest
amplitude (``_band``).  A band of K modes has the first K modes of the
system's propagator, which are elementwise in mu_k and so the bits of the
K-mode grid's, and evaluates the remainder on that grid, 3K/2 padded
nodes.  With the amplitudes from K/4 up at roundoff, the quadratic
remainders of a step's two stages reach mode K at roundoff, and 3K/2
nodes dealias them.  After a step that lifts a system's modes >= K/4
above the level, its band grows, with zero fill, to the band of the new
state; it never shrinks, and at K = N the loop steps as before this rule,
bit for bit, with no check.  The limit system's first band is that of
(h_kappa(v_in), v_in): h_kappa is not polynomial, and data with a few
modes have an image with many.  Where the two systems of a member take
one band, one block-diagonal propagator, one transform pair and one node
map per remainder serve all three rows (u, v, v_lim); where they differ,
each steps on its own band with its own map.

The loop is a generator of samples (t, y), the systems' rows zero-filled
back to N: it yields each sampled state as it is reached and keeps none.
The solvers fill their ``Trajectory`` from the samples, one preallocated
array per run.  The CLI's ``simulate`` and ``limit`` commands read the
same samples (``_simulate_samples``, ``reduction._limit_samples``), copy
them into blocks of ``_block_len`` samples and reduce each block to its
CSV rows, so they never hold a trajectory.  ``Trajectory``'s sups and the
CLI's rows take the node sups of a block from the band it holds
(``_band_width``), the zero fill of the loop's samples dropped: two
half-size products with cached node cosines where they are small, which
fold each node with its mirror node, and the real FFT inverse on N nodes
elsewhere (``_block_sups``).

A band allocates its buffers once (``_Workspace``): the stage a, a sum
for the per-mode matrix-vector product ``_apply`` (one einsum, with no
product array), two states that the steps write in turn, and, where the
matrix transforms write them, the padded node rows and the remainders n0
and na.  On bands up to K = 128 each transform of a remainder is one gemm
over all rows with the pair ``spectral_core._padded_matrices(K, K)`` of
the band's grid, written into those buffers (the product that
``spectral_core._dealiased`` takes), and the node map overwrites the node
rows in place, with one work buffer per call for its temporaries.  A
row's bits under gemm do not depend on the values of the rows beside it,
and the paired map has the bits of the two systems' own maps, so the
paired rows (u, v, v_lim) of a converge member get the bits of the
separate ``simulate`` and ``solve_limit_system`` runs, whether they
share a band or not: each system's band is chosen by the same rule from
the same numbers as in its separate run.  A lone row would go through
gemv instead, so the limit system's row v is transformed beside a zero
partner row that the workspace holds: the states, the stage and the
remainders are the last rows of buffers with a zero row in front of an
odd row count, so the transforms copy nothing.  On those bands a step
allocates nothing of the state's size beyond the node maps' work
buffers; the real FFT pair of larger bands allocates its node values,
half spectra and result.  Each buffer receives the result of the numpy
operation that would otherwise allocate it, so the bits do not depend on
the buffers.

Every solver takes at most ``MAX_STEPS`` steps (``_step_count``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .models import ModelParams, node_remainder
from .spectral_core import (
    _MATRIX_MAX_N,
    Grid,
    SpectralField,
    _dealiased,
    _padded_matrices,
    _permuted_inverse,
    build_grid,
)

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
# The most steps a solver takes: at 10 us to 1 ms a step, 1e7 steps take
# minutes to hours, and a horizon or step that asks for more (T = 1e300,
# dt = 1e-300) is an error.
MAX_STEPS = 10**7
# Amplitudes at most this fraction of a system's largest one are roundoff,
# the level of the transforms' own: the time loop steps the modes above it
# (``_band``).
_BAND_TOL = 1e-15


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


def _apply(P: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-mode matrix-vector product of P (n, n, N) with y (n, N), written
    into ``out`` (n, N), which must not overlap y.

    One einsum, with no product array, and with the bits of the written
    formula ``np.add.reduce(P * y, axis=1)``: per mode, the products summed
    in order of j, each rounded.  That holds where numpy's einsum does not
    fuse a multiply and an add, as in its x86-64 builds;
    ``test_apply_has_the_bits_of_the_written_formula`` fails where it does."""
    return np.einsum("ijk,jk->ik", P, y, out=out)


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
    """E = exp(dt M) and the ETD weights of a per-mode symbol M of shape (n, n, N), n <= 2.

    Raises ``ConfigurationError`` where E, W1 or W2 is not finite: a symbol
    dt M_k whose entries pass about 1e154 (eps = 1e-200, say) overflows the
    discriminant of ``_matrix_phi``, and no step could use the result.
    """
    with np.errstate(all="ignore"):
        Z = dt * M
        E, phi1, phi2 = _matrix_phi((0, 1, 2), Z)
        W1, W2 = dt * phi1, dt * phi2
    if not all(np.isfinite(w).all() for w in (E, W1, W2)):
        raise ConfigurationError(
            f"the exact propagator at dt={dt} is not finite: the symbol dt*M_k reaches "
            f"{np.max(np.abs(Z)):.3g}, beyond the range of its closed form"
        )
    return ModePropagator(dt=dt, M=M, E=E, W1=W1, W2=W2)


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
    u, v = vals[0], vals[1]
    # an assignment of a row to itself copies nothing
    vals[0], vals[1] = node_remainder(params, u, v, (u, v))
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


class _Workspace:
    """The buffers of ``_etd2_step`` for states of shape (n, K), allocated
    once per band of the time loop (``_Band``): two states that the steps
    write in turn, the stage a, a sum for ``_apply`` and, where the matrix
    transforms write a remainder (``padded_size`` given), its padded node
    rows and the remainders n0 and na; elsewhere, where the remainder is
    zero or comes from the real FFT pair, those three are None.

    On the matrix path the states, a, n0 and na are the last n rows of
    buffers with an even number of rows (``.base``): an odd n gets ``pad``
    = 1 zero partner row in front.  A remainder then transforms its state
    or stage in place in that buffer, one gemm per transform with no copy:
    the lone row of ``solve_limit_system`` so that gemm, not gemv,
    transforms it (see ``spectral_core._dealiased``), and the three rows of
    a converge member for speed: the two products over four rows took
    10.6 us against 15.0 us over three at N = 128 (one BLAS thread), and
    ``converge`` ran 4 % faster for it."""

    def __init__(self, shape: tuple, padded_size: int | None):
        n, K = shape
        self.pad = n % 2 if padded_size is not None else 0
        stack = (n + self.pad, K)

        def rows():
            # zero partner rows, which the transforms keep zero: their values
            # do not reach the other rows' bits, but uninitialised ones made a
            # remainder about 30x slower
            return np.zeros(stack)[self.pad :]

        self.states = (rows(), rows())
        self.a, self.sum = rows(), np.empty(shape)
        self.nodes = self.n0 = self.na = None
        if padded_size is not None:
            self.nodes = np.empty((stack[0], padded_size))
            self.n0, self.na = rows(), rows()


def _etd2_step(y: np.ndarray, prop: ModePropagator, remainder, ws: _Workspace, out) -> tuple:
    """One exponential RK2 step (Cox & Matthews 2002) of y' = M y + N(y).

    The new state is written into ``out`` and the step's intermediates
    (n0, a, na) into the workspace ``ws``; returns the new state and the
    intermediates, in the order they are computed.  ``remainder(y, buf)``
    returns N(y), written into ``buf`` where the transforms allow it (a
    new array on the FFT path, a shared zero where N is zero).  Every
    product and sum is the one of the written formula a + W2 (na - n0),
    a = E y + W1 n0, so the bits do not depend on the buffers; the
    correction W2 (na - n0) is formed in ``out`` before a is added to it.
    """
    n0 = remainder(y, ws.n0)
    a = _apply(prop.E, y, ws.a)
    a += _apply(prop.W1, n0, ws.sum)
    na = remainder(a, ws.na)
    correction = _apply(prop.W2, np.subtract(na, n0, out=ws.sum), out)
    return np.add(a, correction, out=out), (n0, a, na)


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
    >= 0 and, for T > 0, dt finite and positive with at most ``MAX_STEPS``
    steps to T, or ``ConfigurationError`` is raised.  T = 0 takes no step,
    whatever dt: (0, None).
    """
    if not 0 <= T < math.inf:
        raise ConfigurationError(f"final time must be finite and >= 0, got T={T}")
    if T == 0:
        return 0, None
    if not 0 < dt < math.inf or not T / dt < math.inf:
        raise ConfigurationError(f"time step must be finite and positive, got dt={dt}")
    n_steps = max(1, math.ceil(T / dt - 1e-9))
    if n_steps > MAX_STEPS:
        raise ConfigurationError(
            f"T={T} at dt={dt} takes {n_steps:.3g} steps, more than the maximum {MAX_STEPS:.0e}"
        )
    return n_steps, T / n_steps


def _sample_count(n_steps: int, sample_every: int) -> int:
    """Samples of an ``n_steps`` run: every ``sample_every``-th state, the
    initial and the final one."""
    if sample_every < 1:
        raise ConfigurationError(f"sample_every must be a positive integer, got {sample_every}")
    return 1 + n_steps // sample_every + (n_steps % sample_every != 0)


class _System(NamedTuple):
    """A system that ``_time_loop`` steps: its initial rows (rows, N), its
    propagator, the node map of its remainder (None: the remainder is zero)
    and the name its ``DivergenceError`` gives.  ``start``, where given,
    holds the rows whose amplitudes choose its first band in place of y0."""

    y0: np.ndarray
    prop: ModePropagator
    node_map: object
    what: str
    start: np.ndarray | None = None


def _band(y: np.ndarray, n: int) -> int:
    """The band of the rows y, the first m <= n amplitudes of states on n
    modes: the smallest power of two K >= 8 whose modes >= K/4 are all at
    most ``_BAND_TOL`` times the largest amplitude of y, or n where no
    smaller one is."""
    mags = np.abs(y).max(axis=0)
    # tail[k]: the largest amplitude at a mode >= k (zero from m on)
    tail = np.append(np.maximum.accumulate(mags[::-1])[::-1], 0.0)
    K = 8
    while K < n and not tail[min(K // 4, len(mags))] <= _BAND_TOL * tail[0]:
        K *= 2
    return K


def _first_modes(prop: ModePropagator, K: int) -> ModePropagator:
    """The first K modes of ``prop``, C-contiguous.  Its arrays are per mode,
    so these are the arrays of the K-mode grid bit for bit."""
    arrays = {name: np.ascontiguousarray(getattr(prop, name)[..., :K]) for name in ("M", "E", "W1", "W2")}
    return ModePropagator(dt=prop.dt, **arrays)


class _Band:
    """Systems stepped together on their band of K modes: one propagator,
    one workspace (``_Workspace``) and one transform pair per remainder for
    all their rows, whose node values ``node_map`` maps in place (None: the
    remainder is zero).

    ``members`` are the indices of consecutive ``systems``, and
    ``states[i]`` holds the rows of system i, which are copied in,
    zero-filled to K.  Below K = N the propagator is the first K modes of
    each system's own (``_first_modes``), and the remainders are evaluated
    on ``build_grid(L, K)``, 3K/2 padded nodes.
    """

    def __init__(self, grid: Grid, systems, members, K: int, states, node_map):
        self.members, self.K, self.full = members, K, K == grid.N
        sizes = [len(systems[i].y0) for i in members]
        edges = np.cumsum([0] + sizes)
        self.rows = [slice(a, b) for a, b in zip(edges, edges[1:])]
        self.first = sum(len(s.y0) for s in systems[: members[0]])
        self.what = [systems[i].what for i, n in zip(members, sizes) for _ in range(n)]
        props = [systems[i].prop for i in members]
        if not self.full:
            props = [_first_modes(p, K) for p in props]
        self.prop = props[0] if len(props) == 1 else _block_diagonal(props)
        band_grid = grid if self.full else build_grid(grid.L, K)
        matrix_path = node_map is not None and K <= _MATRIX_MAX_N
        ws = self.ws = _Workspace((edges[-1], K), band_grid.padded_size if matrix_path else None)
        if node_map is None:
            zero = np.zeros((edges[-1], K))

            def remainder(y, buf):
                return zero

        elif matrix_path:
            # the product _dealiased takes, into the workspace
            inverse, forward = _padded_matrices(K, K)
            nodes = ws.nodes
            own_rows = nodes[ws.pad :]  # the node map does not see the partner row

            def remainder(y, buf):
                # y (a state or the stage) and buf are the last rows of workspace
                # buffers: each transform is one gemm over the whole buffer
                np.matmul(y.base, inverse, out=nodes)
                node_map(own_rows)
                np.matmul(nodes, forward, out=buf.base)
                return buf

        else:

            def remainder(y, buf):
                return _dealiased(band_grid, y, node_map)

        self.remainder = remainder
        self.y = ws.states[0]
        for i, rows in zip(members, self.rows):
            width = min(K, states[i].shape[-1])
            self.y[rows, :width] = states[i][:, :width]

    def step(self, t: float) -> list:
        """One step of all rows to time t; returns the members whose band must grow.

        A new state that leaves |y| <= BLOWUP_LIMIT (or is not finite) raises
        ``DivergenceError`` named after the row that first left it
        (``_diverged_row``).  Below K = N a member's band must grow where
        the step lifts its modes >= K/4 above ``_BAND_TOL`` times its
        largest amplitude.
        """
        ws = self.ws
        out = ws.states[1] if self.y is ws.states[0] else ws.states[0]
        self.y, intermediates = _etd2_step(self.y, self.prop, self.remainder, ws, out)
        mags = np.abs(self.y, out=ws.sum)
        # a row's maximum is nan where the row holds one, and nan <= x is false
        peaks = mags.max(axis=-1).tolist()
        if not all(peak <= BLOWUP_LIMIT for peak in peaks):
            row = _diverged_row(self.y, intermediates)
            raise DivergenceError(f"{self.what[row]} diverged at t={t:.6g}", t=t)
        if self.full:
            return []
        tails = mags[:, self.K // 4 :].max(axis=-1).tolist()
        return [
            i
            for i, rows in zip(self.members, self.rows)
            if not max(tails[rows]) <= _BAND_TOL * max(peaks[rows])
        ]


def _bands(grid: Grid, systems, members, bands: list, states, shared_map) -> list:
    """The ``_Band``s of the ``members``: one for all where their bands
    agree, with ``shared_map`` for two or more, and one each otherwise."""
    if len({bands[i] for i in members}) == 1:
        node_map = systems[members[0]].node_map if len(members) == 1 else shared_map
        return [_Band(grid, systems, members, bands[members[0]], states, node_map)]
    return [_Band(grid, systems, [i], bands[i], states, systems[i].node_map) for i in members]


def _time_loop(grid, t0, n_steps, systems, sample_every, shared_map=None):
    """Step the ``systems`` (``_System``) together ``n_steps`` times from t0, yielding samples.

    Yields (t, y), y the systems' rows stacked, (rows, N), for the initial
    state, every ``sample_every``-th one and the final one:
    ``_sample_count(n_steps, sample_every)`` samples, a count that its
    callers take first, since it also checks ``sample_every``.

    Each system steps on its own band of K modes, a power of two with
    8 <= K <= N (``_Band``): the smallest one whose modes >= K/4 hold at
    most ``_BAND_TOL`` times the largest amplitude of the system's rows
    (``_band``; of ``start`` where given).  After a step that lifts those
    modes above that level, the band grows, with zero fill, to that of the
    new state; it never shrinks, and at K = N the step is the N-mode step
    with no check.  Where all bands agree, one propagator and one transform
    pair per remainder serve all rows, and for two or more systems
    ``shared_map`` maps all their node rows (it must have the bits of
    their own node maps); where they differ, each system steps on its own.
    A system's bits do not depend on the systems beside it (see the module
    docstring).  The samples are the bands' rows
    zero-filled to N.

    The buffers are allocated before the first sample, and again when a
    band grows.  The ``systems``' rows are only read, and each later y is
    valid until the loop resumes: a consumer that keeps a sample copies it.
    """
    y0 = np.concatenate([s.y0 for s in systems])
    if n_steps:
        everyone = range(len(systems))
        bands = [_band(s.y0 if s.start is None else s.start, grid.N) for s in systems]
        groups = _bands(grid, systems, everyone, bands, [s.y0 for s in systems], shared_map)
        sample = np.zeros_like(y0)
    yield t0, y0
    for step in range(1, n_steps + 1):
        t = t0 + step * systems[0].prop.dt
        grown = [i for g in groups for i in g.step(t)]
        if grown:
            states = {i: g.y[rows] for g in groups for i, rows in zip(g.members, g.rows)}
            for i in grown:
                bands[i] = _band(states[i], grid.N)
            groups = _bands(grid, systems, everyone, bands, states, shared_map)
        if step % sample_every == 0 or step == n_steps:
            for g in groups:
                sample[g.first : g.first + len(g.y), : g.K] = g.y
            yield t, sample


# The blocks of the sample reductions (``_block_len``): the sups of
# ``Trajectory`` and the CLI's rows.  Eight samples amortise a block's numpy
# calls at N = 4096, where they take 512 KiB; the byte cap keeps larger
# grids from holding more.
_BLOCK_SAMPLES = 8
_BLOCK_BYTES = 1 << 19


def _block_len(grid: Grid) -> int:
    """States (u, v) per block of the sample reductions: ``_BLOCK_SAMPLES``,
    or as many as fit in ``_BLOCK_BYTES`` where fewer do, at least one."""
    return max(1, min(_BLOCK_SAMPLES, _BLOCK_BYTES // (2 * grid.N * 8)))


def _band_width(states: np.ndarray) -> int:
    """The band of a block of amplitude rows (..., N): the smallest power of
    two W >= 8 (at most N) whose columns hold every nonzero amplitude.  The
    columns from W on are exact zeros, so the block's values are those of
    its first W columns."""
    n = states.shape[-1]
    nonzero = np.flatnonzero((np.reshape(states, (-1, n)) != 0).any(axis=0))
    top = nonzero[-1] + 1 if len(nonzero) else 0
    return min(n, max(8, 1 << (int(top) - 1).bit_length()))


@lru_cache(maxsize=None)
def _node_cosines(n: int, k: int) -> np.ndarray:
    """cos(j pi x_i / L) at the first n/2 of the n nodes, for the even
    modes j < k (``[0]``) and the odd ones (``[1]``): shape (2, k/2, n/2),
    read-only.  Node n-1-i mirrors node i, where the even modes take the
    same value and the odd ones its negative (see ``_block_sups``)."""
    cosines = np.empty((2, k // 2, n // 2))
    for parity, out in enumerate(cosines):
        # j (2i + 1) reduced mod 4n first, so that every angle lies in [0, 2 pi)
        phase = np.outer(np.arange(parity, k, 2), 2 * np.arange(n // 2) + 1) % (4 * n)
        np.cos(np.multiply(phase, np.pi / (2 * n), out=out), out=out)
    cosines.flags.writeable = False  # cached and shared by every caller
    return cosines


def _block_sups(grid: Grid, band: np.ndarray, work=None) -> np.ndarray:
    """The node sups of u1 = u and of u2 = v - u of each state (u, v) of a
    block, shape (2, n), from the block's band ``band`` (n, 2, W): its
    first W <= N amplitudes, the rest zero (``_band_width``).

    Where the two matrices of ``_node_cosines(N, W)``, 4 W N bytes, take
    at most what the FFT path's temporaries take for a full block, twice
    its bytes, and at most 2 x ``_BLOCK_BYTES`` (W <= 64 up to N = 4096,
    W <= 32 at N = 8192, none from N = 65536 on), the sups are two
    half-size products: with d = (u, v - u), E = d_even C_even and
    O = d_odd C_odd at the first N/2 nodes, the value at node i is E_i + O_i
    and at its mirror node N-1-i it is E_i - O_i, so the sup over all N
    nodes is max_i (|E_i| + |O_i|).  Each product is one gemm over the
    block's rows, so a state's sups have the bits of its own call, and
    zero columns of a wider band beside it do not change them.  Above that
    size the band goes through the real FFT inverse on N nodes, whose
    values stay in its permuted order, since a sup does not depend on the
    node order.

    ``work`` (2, m >= 2n, N/2), where given, receives the products, so a
    caller that reduces block after block does not map fresh pages for
    each: a new (2, 16, 2048) product took about 110 page faults and twice
    the time of the rest of the call (N = 4096, W = 64, two BLAS threads).
    """
    n, width = len(band), band.shape[-1]
    if 4 * width * grid.N > 2 * min(_block_len(grid) * 2 * grid.N * 8, _BLOCK_BYTES):
        vals = _permuted_inverse(band, grid.N)
        np.subtract(vals[:, 1], vals[:, 0], out=vals[:, 1])
        return np.abs(vals, out=vals).max(axis=-1).T
    # (parity, sample, field, mode pair): the even and the odd modes of d
    d = np.empty((2, n, 2, width // 2))
    d[0], d[1] = band[..., 0::2], band[..., 1::2]
    np.subtract(d[:, :, 1], d[:, :, 0], out=d[:, :, 1])
    out = None if work is None else work[:, : 2 * n]
    even, odd = np.matmul(d.reshape(2, 2 * n, -1), _node_cosines(grid.N, width), out=out)
    np.abs(even, out=even)
    even += np.abs(odd, out=odd)
    return even.max(axis=-1).reshape(n, 2).T


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
        # a block at a time: the node values of all samples at once would be
        # a temporary as large as the trajectory
        step = _block_len(self.grid)
        work = np.empty((2, 2 * step, self.grid.N // 2))
        blocks = (self.coeffs[i : i + step] for i in range(0, len(self.coeffs), step))
        return np.hstack([_block_sups(self.grid, b[..., : _band_width(b)], work) for b in blocks])

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
    system = _System(np.stack([state0.u.coeffs, state0.v.coeffs]), prop, node_map, "state")
    return n_samples, _time_loop(grid, state0.t, n_steps, [system], sample_every)


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
