"""Slow manifolds on Galerkin truncations via Lyapunov-Perron iteration.

The splitting puts v-modes k < k0 into the slow block and k >= k0 into the
fast block (u keeps all modes).  A manifold graph point over slow data v0 is
the t = 0 slice of the fixed point of the map that sends a backward
trajectory (u, v_F, v_S) on [-T_back, 0] to

    u(t)   = int_{-T}^t exp(lam_u (t-s)) N_u(s) ds,
    v_F(t) = int_{-T}^t exp(lam_v (t-s)) (delta A u + psi)_F(s) ds,
    v_S(t) = exp(lam_v t) v0 + int_0^t exp(lam_v (t-s)) (delta A u + psi)_S(s) ds,

with lam_u = -(d+delta) mu - m/eps (m = 1 nonlinear, 2 linear), lam_v = -d mu
and the coupling delta A = -delta mu read from the full system's per-mode
symbol (``integrator._system_matrices``).  All kernels are applied
mode-wise exactly; the sources (N_u, psi) are the time loop's remainder
(``integrator._full_node_map`` in place of the padded node values, through
``spectral_core._dealiased``), reconstructed piecewise-linearly between grid
points (exponential trapezoid weights).  The sources are evaluated in
blocks of time nodes whose padded node values stay in cache, each block's
transforms as one gemm product: a point's bits depend on the block rows
(``_source_block_rows``), but not on the other points, the worker count or
the BLAS thread count.  On the time grid each
integral becomes a first-order linear recurrence per mode, forward in time
for u and v_F and backward for v_S.  The recurrences are evaluated as
blocked scans over the time nodes (the chunked prefix scan; Blelloch 1990,
Dao & Gu 2024), not node by node (``_scan_kernel``, ``_linear_scan``): the
nodes are cut into blocks of _SCAN_BLOCK, a batched product gives every
block's end, a log-depth scan over the block ends gives each block's
carry, and one batched product of every block's carry and sources with a
per-mode matrix (the Toeplitz factor of the powers of e^{lam h}, with the
trapezoid weights folded in) gives all values.  So a point's bits also
depend on _SCAN_BLOCK and n_t, and again not on the other points, the
worker count or the BLAS thread count.  The iterate (U, V) lives on the
Galerkin band of n_modes retained modes as one (2, n_t, n_modes) array,
since the sources vanish above it; a graph point is padded to all N modes.
Convergence and the observed contraction factor are measured in the
weighted sup norm sup_t e^{-eta t} (||u||_H2 + ||v_F||_H2 + ||v_S||_H2).

``lyapunov_perron_sweep`` is the one solver; a single point is the graph
of one sample.  Its builder, ``_graph_solver``, checks every option before
it builds anything, then builds, as locals shared by a graph's points, the
per-mode rates, the horizon, the scan kernels' block matrices and carry
powers, the norm weights and the work buffers (the ping-pong pair of
iterates, the sources, the coupled source, the scans' work buffer and the
norms' temporaries), which every sweep of every point reuses instead of
allocating its own; it returns the iteration over one point's slow data as
a closure, so a point is the same bits in a graph of one as in a graph of
many.  The sweep checks every sample before any point runs.  With two or
more usable CPUs the calling process and forked children solve the points
between them, one worker per CPU and no thread or process pool
(``_parallel._fork_map``): a closure cannot be pickled, so each child
inherits the closure through the fork and works in its own copy of the
buffers, and only a point's result comes back.  A point is the same bits
in a child as in this process, where the points run in turn on one CPU.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._parallel import _fork_map
from .errors import (
    ConfigurationError,
    ContractionError,
    HorizonError,
    SplittingError,
)
from .integrator import _full_node_map, _phi, _system_matrices
from .models import ModelParams
from .spectral_core import Grid, SpectralField, _dealiased, build_grid

__all__ = [
    "SplittingParams",
    "GapReport",
    "ManifoldPoint",
    "ManifoldGraph",
    "splitting_parameters",
    "validate_assumptions",
    "lyapunov_perron_sweep",
]

# Byte budget of one block of ``_sources``' padded node values (both fields).
_SOURCE_BLOCK_BYTES = 256 * 1024
# Time nodes per block of ``_linear_scan``.
_SCAN_BLOCK = 32

GAP_FORMULA_NOTE = (
    "splitting formulas give N_S - N_F = k0 - 2 (not k0); implemented as written"
)


@dataclass(frozen=True)
class SplittingParams:
    """Fast/slow splitting derived from the inverse splitting parameter."""

    zeta_inv: float
    k0: int
    N_S: float
    N_F: float
    gap: float
    eta: float


def splitting_parameters(zeta_inv: float) -> SplittingParams:
    """Splitting constants for k0^2 < zeta_inv < (k0+1)^2.

    Perfect squares are nudged by 1e-9 (with a warning); a non-positive gap
    (k0 <= 2) is rejected.
    """
    zeta_inv = float(zeta_inv)
    if not 1.0 < zeta_inv < math.inf:
        raise ConfigurationError(f"zeta_inv must be finite and exceed 1, got {zeta_inv}")
    root = math.sqrt(zeta_inv)
    if abs(root - round(root)) < 1e-12:
        warnings.warn(
            f"zeta_inv={zeta_inv} is a perfect square; nudging by 1e-9", stacklevel=2
        )
        zeta_inv += 1e-9
    k0 = int(math.floor(math.sqrt(zeta_inv)))
    N_S = -zeta_inv - (k0 - 1) ** 2
    N_F = -zeta_inv - k0**2 + k0 + 1
    gap = N_S - N_F
    if gap <= 0:
        raise SplittingError(
            f"degenerate splitting: gap = k0 - 2 = {gap:g} for zeta_inv={zeta_inv}"
        )
    eta = 0.5 * (N_F + N_S) - zeta_inv
    return SplittingParams(zeta_inv=zeta_inv, k0=k0, N_S=N_S, N_F=N_F, gap=gap, eta=eta)


@dataclass(frozen=True)
class GapReport:
    """Diagnostics of the spectral-gap condition and parameter inequalities at ``split``."""

    split: SplittingParams
    term1: float
    term2: float
    total: float
    parameter_inequality_value: float
    small_ratio_ok: bool          # eps * zeta_inv < (1 - L_f) / 4
    passes: bool


def validate_assumptions(params: ModelParams, split: SplittingParams, lips) -> GapReport:
    """Evaluate the spectral-gap condition with the given Lipschitz budgets.

    ``lips`` is the triple (L_f, L_phi, L_psi).  Passing requires the two
    gap summands to total below one, the parameter inequality to be
    negative, and eps * zeta_inv < (1 - L_f) / 4.  The formulas hold the
    Neumann Laplacian's semigroup constant 1 and growth rate 0.  Where the
    parameter inequality is exactly 0, the first summand is inf.  Each
    budget must be finite and >= 0: a negative one would let the condition
    pass where the true budget fails it.
    """
    L_f, L_phi, L_psi = lips
    if not all(math.isfinite(L) and L >= 0 for L in lips):
        raise ConfigurationError(
            f"Lipschitz budgets (L_f, L_phi, L_psi) must be finite and >= 0, got {tuple(lips)}"
        )
    eps, d, delta = params.eps, params.d, params.delta
    param_ineq = -(1.0 - eps * split.zeta_inv) - eps * 0.5 * (split.N_S + split.N_F)
    term1 = (L_f + eps * L_phi) / abs(param_ineq) if param_ineq != 0.0 else math.inf
    term2 = (
        2.0
        * (delta * (1.0 + 1.0 / d) * (L_f + eps * L_phi) + 2.0 * eps * L_psi)
        / (eps * split.gap)
    )
    total = term1 + term2
    small_ratio_ok = eps * split.zeta_inv < (1.0 - L_f) / 4.0
    passes = bool(total < 1.0 and param_ineq < 0.0 and small_ratio_ok)
    return GapReport(
        split=split,
        term1=term1,
        term2=term2,
        total=total,
        parameter_inequality_value=param_ineq,
        small_ratio_ok=small_ratio_ok,
        passes=passes,
    )


# ---------------------------------------------------------------------------
# Lyapunov-Perron fixed point


@dataclass(frozen=True)
class ManifoldPoint:
    """t = 0 slice of a Lyapunov-Perron fixed point over slow data v_slow.

    ``contraction`` is the largest ratio of successive sweep distances after
    the first ratio (the first where it is the only one), and nan where the
    point converged before any ratio was measured.
    """

    grid: Grid
    v_slow: np.ndarray
    u_coeffs: np.ndarray
    v_fast_coeffs: np.ndarray
    iterations: int
    contraction: float
    converged: bool
    t_back: float
    n_t: int

    @property
    def u(self) -> SpectralField:
        return SpectralField(self.grid, self.u_coeffs)

    @property
    def v_fast(self) -> SpectralField:
        return SpectralField(self.grid, self.v_fast_coeffs)


def _h2_weights(grid: Grid) -> np.ndarray:
    w = np.full(grid.N, grid.L / 2.0)
    w[0] = grid.L
    return w * (1.0 + grid.mu + grid.mu**2)


def _slow_data(v_slow, k0: int) -> np.ndarray:
    """The k0 slow v-coefficients ``v_slow`` as a float array, checked."""
    v_slow = np.asarray(v_slow, dtype=float)
    if v_slow.shape != (k0,):
        raise ConfigurationError(f"expected {k0} slow coefficients, got {v_slow.shape}")
    return v_slow


def _source_block_rows(grid: Grid) -> int:
    """Time nodes per block of ``_sources``: both fields' padded node values
    of one block fit in _SOURCE_BLOCK_BYTES."""
    return max(1, _SOURCE_BLOCK_BYTES // (2 * 8 * grid.padded_size))


def _sources(params: ModelParams, grid: Grid, Y, clip_bound, out):
    """Coefficient sources (N_u, psi) of the backward trajectories Y = (U, V)
    on the Galerkin band, dealiased, written into ``out`` (Y's shape).

    ``clip_bound`` saturates the node values before the nonlinearity is
    applied (the cut-off that makes the quadratic terms globally Lipschitz);
    backward trajectories of the slow block grow under the heat group, so
    without it large slow data diverges under quadratic feedback.

    The time nodes are evaluated in blocks of ``_source_block_rows(grid)``,
    whose padded node values stay in cache through the clip and the
    remainder's passes; the whole (2, n_t, 3N/2) node array would stream
    from memory on every pass.  On the matrix path each block's transforms
    are one gemm product (``_dealiased``).  So the bits depend on the block
    rows, but not on the other graph points, the worker count or the BLAS
    thread count, and they equal one call over all nodes to roundoff."""
    if params.is_linear:
        np.divide(Y[1], params.eps, out=out[0])
        out[1] = 0.0
        return out

    def node_map(vals):
        # in place: extra temporaries of the node values' size raise the
        # page faults of a sweep
        if clip_bound is not None:
            np.clip(vals, -clip_bound, clip_bound, out=vals)
        return _full_node_map(params, vals)

    rows = _source_block_rows(grid)
    for i in range(0, Y.shape[1], rows):
        out[:, i : i + rows] = _dealiased(grid, Y[:, i : i + rows], node_map)
    return out


@dataclass(frozen=True)
class _ScanKernel:
    """The constants of one recurrence over n_t time nodes, set up once per graph.

    The recurrence is y_j = a y_{j-1} + wA G_{j-1} + wB G_j for j = 1, ..,
    n_t - 1 from a given y_0, with one factor a and weight pair per mode (K
    modes).  Its nodes 1, .., n_t - 1 are cut into ``blocks`` blocks of B
    nodes and a tail of ``tail`` < B nodes.  ``matrix`` (K, B + 2, B) maps a
    block's input row (the carry y before the block, then G at the node
    before the block and at its B nodes) to its B values: row 0 holds
    a^1, .., a^B and row 1 + q the weight of G at offset q, the lower
    triangular Toeplitz factor a^(t-i) times the weights, wA a^(t-q) +
    wB a^(t+1-q).  ``carry`` holds a^(sB) for s = 1, 2, 4, .. <= ``blocks``,
    the factors of the scan over the carries.
    """

    matrix: np.ndarray
    carry: tuple
    blocks: int
    tail: int

    @property
    def work_size(self) -> int:
        """Elements of the flat work buffer ``_linear_scan`` needs."""
        K, rows, B = self.matrix.shape
        return K * (self.blocks + 1) * (rows + B + 2)


def _scan_kernel(lam, h, n_t, backward=False) -> _ScanKernel:
    """The kernel of the recurrence over n_t nodes with step h and rates lam.

    Forward, a = e^{lam h} and (wA, wB) are the exponential trapezoid
    weights of the left and right source node.  Backward, the recurrence
    runs in reversed time: a = e^{-lam h}, and the weights are those of
    v_{j-1} = a (v_j - wA F_{j-1} - wB F_j), with G the reversed sources.
    The block is B = min(_SCAN_BLOCK, n_t - 1) nodes.  a^m is formed as
    exp(m log a), the power of the rounded factor, and only for m <= n_t - 1:
    a growing factor never forms a power beyond the horizon, which could
    overflow.  A factor that underflowed to 0 gives a = 0 and the identity
    Toeplitz factor.
    """
    z = lam * h
    factor = np.exp(-z if backward else z)
    phi2 = _phi(2, z)
    wA, wB = h * (_phi(1, z) - phi2), h * phi2
    if backward:
        wA, wB = -factor * wB, -factor * wA
    with np.errstate(divide="ignore"):  # a = 0 where a stiff decay underflowed
        log_a = np.log(factor)[:, None]
    B = min(_SCAN_BLOCK, n_t - 1)
    blocks, tail = divmod(n_t - 1, B)
    # a^0, .., a^B, then a zero column for the weights outside the triangle
    powers = np.zeros((len(factor), B + 2))
    powers[:, 0] = 1.0
    powers[:, 1 : B + 1] = np.exp(np.arange(1, B + 1) * log_a)
    q, t = np.arange(B + 1)[:, None], np.arange(B)
    left = np.where(q <= t, t - q, B + 1)
    right = np.where((1 <= q) & (q <= t + 1), t + 1 - q, B + 1)
    matrix = np.empty((len(factor), B + 2, B))
    matrix[:, 0] = powers[:, 1 : B + 1]
    matrix[:, 1:] = wA[:, None, None] * powers[:, left] + wB[:, None, None] * powers[:, right]
    carry = []
    s = 1
    while s <= blocks:
        carry.append(np.exp(s * B * log_a))
        s *= 2
    return _ScanKernel(matrix, tuple(carry), blocks, tail)


def _linear_scan(kernel: _ScanKernel, G, y0, work):
    """y_1, .., y_{n-1} of ``kernel``'s recurrence over the (n, K) sources G
    from y_0 = y0, as a (K, n - 1) view into ``work`` (a flat array of at
    least ``kernel.work_size`` elements, which G does not overlap).

    A blocked scan (Blelloch 1990; the chunked form of Dao & Gu 2024): the
    ends of the blocks at zero carry are one batched product, a log-depth
    scan over them gives each block's carry, and one batched product of
    every block's input row with ``kernel.matrix`` gives all values; the
    tail takes the matrix's leading part.  There is no Python loop over
    the nodes, and each value's rounding depends on B and n but not on the
    other modes, other calls or the BLAS thread count.
    """
    K, rows, B = kernel.matrix.shape
    C, r = kernel.blocks, kernel.tail
    m = K * (C + 1)
    X = work[: m * rows].reshape(K, C + 1, rows)
    Y = work[m * rows : m * (rows + B)].reshape(K, C + 1, B)
    carry, temp = work[m * (rows + B) : m * (rows + B + 2)].reshape(2, K, C + 1)
    Gt = G.T
    # block c's row: its carry, then G at nodes cB (before it) .. cB + B
    X[:, :C, 1] = Gt[:, : C * B : B]
    X[:, :C, 2:] = Gt[:, 1 : C * B + 1].reshape(K, C, B)
    carry[:, 0] = y0
    ends = np.matmul(X[:, :C, 1:], kernel.matrix[:, 1:, B - 1 :], out=Y[:, :C, :1])
    carry[:, 1:] = ends[:, :, 0]
    s = 1
    for a_sB in kernel.carry:
        carry[:, s:] += np.multiply(a_sB, carry[:, :-s], out=temp[:, : C + 1 - s])
        s *= 2
    X[:, :, 0] = carry
    np.matmul(X[:, :C], kernel.matrix, out=Y[:, :C])
    if r:
        X[:, C, 1 : r + 2] = Gt[:, C * B :]
        np.matmul(X[:, C:, : r + 2], kernel.matrix[:, : r + 2, :r], out=Y[:, C:, :r])
    return Y.reshape(K, -1)[:, : C * B + r]


def _convolve_forward(kernel: _ScanKernel, F, out, work):
    """I(t_j) = int_{-T}^{t_j} e^{lam (t_j - s)} F(s) ds with F piecewise linear.

    ``F`` has shape (n_t, K) for the K rates of ``kernel``; the result is
    written into ``out`` (the same shape, which may be strided) and
    returned.  The recurrence I_j = e^{lam h} I_{j-1} + wA F_{j-1} + wB F_j
    from I_0 = 0 is evaluated by ``_linear_scan`` in ``work``.
    """
    out[0] = 0.0
    out[1:] = _linear_scan(kernel, F, 0.0, work).T
    return out


def _propagate_slow_backward(kernel: _ScanKernel, v0, F, out, work):
    """Solve v' = lam v + F backward from v(0) = v0 on the slow block.

    The recurrence v_{j-1} = e^{-lam h} (v_j - wA F_{j-1} - wB F_j) is
    evaluated by ``_linear_scan`` in reversed time, with ``kernel`` the
    backward one; the result is written into ``out`` (F's shape) and
    returned, and ``work`` is as in ``_convolve_forward``.
    """
    out[-1] = v0
    out[-2::-1] = _linear_scan(kernel, F[::-1], v0, work).T
    return out


def _graph_grid(params: ModelParams, n_modes: int) -> Grid:
    """The grid of a graph on n_modes retained modes: the smallest power of
    two N >= 8 with N >= 2 n_modes."""
    n = 8
    while n < 2 * n_modes:
        n *= 2
    return build_grid(params.L, n)


def _graph_solver(params, split, fast_band, t_back, n_t, tol, max_iter, gap_report, clip_bound):
    """Checks ``lyapunov_perron_sweep``'s options (raising their
    ConfigurationError, and HorizonError for a short ``t_back``), builds once
    what a graph's points share, and returns ``solve(v0)``, the fixed point
    over the checked slow data v0.  The work buffers: the ping-pong pair of
    iterates, the sources, the coupled source ``S``, ``work`` for the
    scans, which read their sources from and write their values into the
    strided columns of ``S`` and the iterate, and ``temp``, a flat buffer
    viewed as C-contiguous (n_t, width) columns for the norms.  A point
    leaves nothing in them that the next reads.
    """
    for name, value in (("t_back", t_back), ("clip_bound", clip_bound)):
        if value is not None and not 0 < value < math.inf:
            # np.clip with a bound <= 0 would set every node to the bound
            raise ConfigurationError(f"{name} must be finite and > 0, got {value}")
    if not 0 < tol < 1:
        # the default horizon 20 eps ln(1/tol) is positive only for tol < 1
        raise ConfigurationError(f"tol must be in (0, 1), got {tol}")
    k0 = split.k0
    if fast_band is None:
        fast_band = 3 * k0
    integers = (("n_t", n_t, 8), ("max_iter", max_iter, 1), ("fast_band", fast_band, 1))
    for name, value, least in integers:
        # with no sweep, max_iter < 1 would return u = 0 as a graph point; a
        # float would reach range() or a slice and raise TypeError there
        if not isinstance(value, numbers.Integral) or value < least:
            raise ConfigurationError(f"{name} must be an integer >= {least}, got {value}")
    n_modes = k0 + fast_band
    grid = _graph_grid(params, n_modes)
    M = _system_matrices(params, grid)
    lam_u, lam_v, coupling = M[0, 0, :n_modes], M[1, 1, :n_modes], M[1, 0, :n_modes]

    # horizon: every retained decaying kernel must reach tol/10 over t_back;
    # the slowest are u's mode 0 and v's first fast mode
    slowest = float(min(-lam_u[0], -lam_v[k0]))
    needed = math.log(10.0 / tol) / slowest
    if t_back is None:
        t_back = max(20.0 * params.eps * math.log(1.0 / tol), needed)
    elif math.exp(-slowest * t_back) > tol / 10.0:
        raise HorizonError(
            f"t_back={t_back:.4g} leaves truncation tail "
            f"{math.exp(-slowest * t_back):.2e} > tol/10={tol / 10:.2e}"
        )

    h = t_back / (n_t - 1)
    t_nodes = -t_back + h * np.arange(n_t)
    weights = np.exp(-split.eta * t_nodes)  # eta < 0: weights <= 1, peak at t = 0
    nw = _h2_weights(grid)[:n_modes]
    slow_growth = np.exp(np.outer(t_nodes, lam_v[:k0]))
    kernel_u = _scan_kernel(lam_u, h, n_t)
    kernel_vf = _scan_kernel(lam_v[k0:], h, n_t)
    kernel_vs = _scan_kernel(lam_v[:k0], h, n_t, backward=True)

    slow = slice(0, k0)
    fast = slice(k0, n_modes)
    iterates = (np.empty((2, n_t, n_modes)), np.empty((2, n_t, n_modes)))
    sources = np.empty((2, n_t, n_modes))
    S = np.empty((n_t, n_modes))
    work, temp = np.empty(kernel_u.work_size), np.empty(n_t * n_modes)
    temp_u, temp_vf, temp_vs = (
        temp[: n_t * w].reshape(n_t, w) for w in (n_modes, n_modes - k0, k0)
    )

    def band_norm(new, old, w, buf):
        # H2 norms of new - old over the time nodes, formed in ``buf``
        d = np.subtract(new, old, out=buf)
        d *= d
        return np.sqrt(d @ w)

    def weighted_distance(new, old):
        nu = band_norm(new[0], old[0], nw, temp_u)
        nvf = band_norm(new[1, :, fast], old[1, :, fast], nw[fast], temp_vf)
        nvs = band_norm(new[1, :, slow], old[1, :, slow], nw[slow], temp_vs)
        return float(np.max(weights * (nu + nvf + nvs)))

    def solve(v0) -> ManifoldPoint:
        # Y = (U, V): band amplitudes of the backward trajectories, (2, n_t, n_modes)
        Y, Y_new = iterates
        Y[0] = 0.0
        Y[1, :, fast] = 0.0
        np.multiply(slow_growth, v0, out=Y[1, :, slow])

        ratios = []
        prev_dist = None
        bad_streak = 0
        converged = False
        for iterations in range(1, max_iter + 1):
            n_u, psi = _sources(params, grid, Y, clip_bound, sources)
            _convolve_forward(kernel_u, n_u, Y_new[0], work)
            np.multiply(coupling, Y[0], out=S)
            np.add(S, psi, out=S)
            _convolve_forward(kernel_vf, S[:, fast], Y_new[1, :, fast], work)
            _propagate_slow_backward(kernel_vs, v0, S[:, slow], Y_new[1, :, slow], work)
            dist = weighted_distance(Y_new, Y)
            Y, Y_new = Y_new, Y
            if not np.isfinite(dist):
                raise ContractionError(
                    "Lyapunov-Perron iterate overflowed", gap_report=gap_report
                )
            if prev_dist is not None and prev_dist > max(tol, 1e-14):
                ratio = dist / prev_dist
                ratios.append(ratio)
                bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
                if bad_streak >= 3:
                    raise ContractionError(
                        f"no contraction for 3 consecutive sweeps (last ratio {ratio:.3f})",
                        gap_report=gap_report,
                    )
            prev_dist = dist
            if dist < tol:
                converged = True
                break
        contraction = max(ratios[1:], default=(ratios[0] if ratios else math.nan))
        u_end, v_end = Y[:, -1]
        return ManifoldPoint(
            grid=grid,
            v_slow=v0.copy(),
            u_coeffs=np.pad(u_end, (0, grid.N - n_modes)),
            v_fast_coeffs=np.pad(v_end[fast], (k0, grid.N - n_modes)),
            iterations=iterations,
            contraction=float(contraction),
            converged=converged,
            t_back=t_back,
            n_t=n_t,
        )

    return solve


@dataclass
class ManifoldGraph:
    """Sampled graph of the slow manifold over slow-coefficient vectors.

    ``lipschitz_ratio`` is the largest ratio, over pairs of points with
    distinct slow data, of the H2 distance of their graph values to that of
    their slow data (nan where there is no such pair).
    """

    k0: int
    points: list
    lipschitz_ratio: float = field(init=False, default=float("nan"))

    def __post_init__(self):
        if len(self.points) < 2:
            return
        nw = _h2_weights(self.points[0].grid)

        def distances(name, i, j, weights):
            # one row per pair; a row's sum is the one of its pair alone
            data = np.array([getattr(p, name) for p in self.points])
            return np.sqrt(np.sum(weights * (data[i] - data[j]) ** 2, axis=-1))

        i, j = np.triu_indices(len(self.points), 1)
        dnorm = distances("v_slow", i, j, nw[: self.k0])
        distinct = ~(dnorm < 1e-14)
        if not distinct.any():
            return
        i, j, dnorm = i[distinct], j[distinct], dnorm[distinct]
        du = distances("u_coeffs", i, j, nw)
        dvf = distances("v_fast_coeffs", i, j, nw)
        self.lipschitz_ratio = float(np.max((du + dvf) / dnorm))


def lyapunov_perron_sweep(
    v0_samples,
    params: ModelParams,
    split: SplittingParams,
    fast_band: int | None = None,
    t_back: float | None = None,
    n_t: int = 512,
    tol: float = 1e-8,
    max_iter: int = 200,
    gap_report: GapReport | None = None,
    clip_bound: float | None = None,
) -> ManifoldGraph:
    """Fixed points of the discretized Lyapunov-Perron map over a list of
    slow-coefficient vectors, one graph point each.

    Each sample holds the k0 slow v-coefficients.  The truncation keeps
    n_modes = k0 + fast_band modes (fast_band defaults to 3 k0) on the grid
    ``_graph_grid(params, n_modes)``.  The default backward horizon
    20 eps ln(1/tol) is extended automatically when the slowest retained
    kernel needs longer to reach the tail target tol/10; an explicitly
    passed ``t_back`` that is too short raises HorizonError instead.  Three
    consecutive non-contracting sweeps of a point raise ContractionError
    carrying ``gap_report``.

    For the nonlinear kind, pass ``clip_bound`` (the invariant-box bound,
    e.g. K_{0,M}) to saturate the quadratic terms in the far past; backward
    slow-mode growth otherwise feeds the quadratics and large data diverges.
    ``clip_bound`` and ``t_back``, where given, must be finite and > 0,
    ``tol`` must lie in (0, 1), and n_t >= 8, max_iter >= 1 and
    fast_band >= 1 must be integers (numpy integers included).

    The options are checked, and the setup and the work buffers they
    determine are built once for the whole graph (``_graph_solver``), and
    every sample's shape is checked, before any point runs; a point is the
    same bits alone as in a graph of many.  On two or more usable CPUs this
    process and forked children solve the points between them
    (``_parallel._fork_map``); each child inherits the setup and reuses its
    own copy of the buffers for the points it solves.  On one CPU they run
    in turn in this process.  Either way the points come back in
    ``v0_samples`` order, and a point's error reaches the caller from the
    first failing point in that order.
    """
    solve = _graph_solver(
        params, split, fast_band, t_back, n_t, tol, max_iter, gap_report, clip_bound
    )
    samples = [_slow_data(v0, split.k0) for v0 in v0_samples]
    points = _fork_map(solve, [(v0,) for v0 in samples])
    return ManifoldGraph(k0=split.k0, points=points)
