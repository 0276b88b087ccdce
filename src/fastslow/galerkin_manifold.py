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
blocks of time nodes whose padded node values stay in cache; the bits are
those of one call over all nodes, because ``_dealiased`` transforms every
row on its own and the node map is pointwise.  On the time grid each
integral becomes a first-order linear recurrence per mode, forward in time
for u and v_F and backward for v_S; the recurrences are evaluated as
log-depth prefix scans over the time nodes (Blelloch 1990), not node by
node (``_scan_kernel``, ``_linear_scan``).  The iterate (U, V) lives on the
Galerkin band of n_modes retained modes as one (2, n_t, n_modes) array,
since the sources vanish above it; a graph point is padded to all N modes.
Convergence and the observed contraction factor are measured in the
weighted sup norm sup_t e^{-eta t} (||u||_H2 + ||v_F||_H2 + ||v_S||_H2).

One builder, ``_graph_solver``, serves both public solvers.  It checks the
options and builds, as locals shared by a graph's points, the per-mode
rates, the horizon, the scan kernels' weights and factor powers, the norm
weights and the work buffers (the ping-pong pair of iterates, the sources,
the coupled source and the scans' temporaries, with their contiguous
views), which every sweep of every point reuses instead of allocating its
own; it returns the iteration over one point's slow data as a closure.
``lyapunov_perron_fixed_point`` builds it for one point and
``lyapunov_perron_sweep`` for the whole graph, so a graph point is the same
bits whichever of the two computes it.  The sweep checks every sample
before any point runs.  With two or more usable CPUs the calling process
and forked children solve the points between them, one worker per CPU and
no thread or process pool (``_parallel._fork_map``): a closure cannot be
pickled, so each child inherits the closure through the fork and works in
its own copy of the buffers, and only a point's result comes back.  A
point is the same bits in a child as in this process, where the points run
in turn on one CPU.
"""

from __future__ import annotations

import itertools
import math
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
from .integrator import FastSlowState, _full_node_map, _phi, _system_matrices, simulate
from .models import ModelParams
from .reduction import critical_map_u_of_v
from .spectral_core import Grid, SpectralField, _dealiased, build_grid

__all__ = [
    "SplittingParams",
    "GapReport",
    "ManifoldPoint",
    "ManifoldGraph",
    "AttractionSample",
    "ResolventReport",
    "splitting_parameters",
    "validate_assumptions",
    "lyapunov_perron_fixed_point",
    "lyapunov_perron_sweep",
    "attraction_projection",
    "resolvent_bound_check",
]

# Byte budget of one block of ``_sources``' padded node values (both fields).
_SOURCE_BLOCK_BYTES = 256 * 1024

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
    """Diagnostics of the spectral-gap condition and parameter inequalities."""

    eps: float
    delta: float
    zeta_inv: float
    k0: int
    N_S: float
    N_F: float
    gap: float
    eta: float
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
        eps=eps,
        delta=delta,
        zeta_inv=split.zeta_inv,
        k0=split.k0,
        N_S=split.N_S,
        N_F=split.N_F,
        gap=split.gap,
        eta=split.eta,
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
    """t = 0 slice of a Lyapunov-Perron fixed point over slow data v_slow."""

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


def _embed_slow(grid: Grid, v_slow: np.ndarray, k0: int) -> np.ndarray:
    out = np.zeros(grid.N)
    out[:k0] = _slow_data(v_slow, k0)
    return out


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
    from memory on every pass.  The bits are those of one call over all
    nodes: ``_dealiased`` transforms each row on its own (``_rowwise``, or
    the real FFT pair along the last axis) and the node map is pointwise."""
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
    """The per-sweep constants of one recurrence, set up once per graph.

    ``wA``, ``wB`` are the exponential trapezoid weights of the left and
    right source node, ``factor`` the per-step factor e^{lam h} (forward) or
    e^{-lam h} (backward) and ``powers`` its powers for s = 1, 2, 4, .. < n_t,
    the factors of ``_linear_scan``'s passes.
    """

    wA: np.ndarray
    wB: np.ndarray
    factor: np.ndarray
    powers: tuple


def _scan_kernel(lam, h, n_t, backward=False) -> _ScanKernel:
    """The kernel of the recurrence over n_t nodes with step h and rates lam.

    a^s is formed as exp(s log a), not by repeated squaring, whose rounding
    doubles with every pass, and only for s < n_t: a growing factor never
    forms an unused power that could overflow.
    """
    z = lam * h
    factor = np.exp(-z if backward else z)
    with np.errstate(divide="ignore"):  # a = 0 where a stiff decay underflowed
        log_a = np.log(factor)
    powers = []
    s = 1
    while s < n_t:
        powers.append(np.exp(s * log_a))
        s *= 2
    phi2 = _phi(2, z)
    return _ScanKernel(h * (_phi(1, z) - phi2), h * phi2, factor, tuple(powers))


def _linear_scan(powers, x, temp):
    """In place, x[j] = a x[j-1] + x[j] along axis 0, for j = 1, 2, ... in turn.

    Evaluated as ceil(log2 n) doubling passes x[s:] += a^s x[:-s] for
    s = 1, 2, 4, ... (an inclusive prefix scan of the first-order linear
    recurrence), so there is no Python loop over the rows; ``powers`` holds
    a^s for every s < n (``_scan_kernel``).  Each product a^s x[:-s] is
    formed in ``temp``, an array of x's shape that x does not overlap.
    """
    n = len(x)
    s = 1
    for a_s in powers:
        x[s:] += np.multiply(a_s, x[:-s], out=temp[: n - s])
        s *= 2
    return x


def _convolve_forward(kernel: _ScanKernel, F, out, temp):
    """I(t_j) = int_{-T}^{t_j} e^{lam (t_j - s)} F(s) ds with F piecewise linear.

    ``F`` has shape (n_t, K) for the K rates of ``kernel``; the result is
    written into ``out`` (the same shape) and returned.  The recurrence
    I_j = e^{lam h} I_{j-1} + wA F_{j-1} + wB F_j from I_0 = 0 is evaluated
    as a log-depth scan over the time nodes; ``temp`` (F's shape) holds
    its temporaries.  Neither may overlap F.
    """
    out[0] = 0.0
    np.multiply(kernel.wA, F[:-1], out=out[1:])
    out[1:] += np.multiply(kernel.wB, F[1:], out=temp[:-1])
    return _linear_scan(kernel.powers, out, temp)


def _propagate_slow_backward(kernel: _ScanKernel, v0, F, rev, temp):
    """Solve v' = lam v + F backward from v(0) = v0 on the slow block.

    The recurrence v_{j-1} = e^{-lam h} (v_j - wA F_{j-1} - wB F_j) is
    evaluated as a log-depth scan in reversed time, in ``rev`` (F's shape,
    C-contiguous: a scan over a reversed view is about twice as slow);
    returns the reversed view of ``rev``.  ``kernel`` is the backward one,
    and ``temp`` is as in ``_convolve_forward``.
    """
    rev[0] = v0
    src = np.multiply(kernel.wA, F[:-1], out=temp[:-1])
    src += np.multiply(kernel.wB, F[1:], out=rev[1:])
    np.multiply(-kernel.factor, src, out=rev[:0:-1])
    return _linear_scan(kernel.powers, rev, temp)[::-1]


def _graph_grid(params: ModelParams, n_modes: int) -> Grid:
    """The grid of a graph on n_modes retained modes: the smallest power of
    two N >= 8 with N >= 2 n_modes."""
    n = 8
    while n < 2 * n_modes:
        n *= 2
    return build_grid(params.L, n)


def _graph_solver(params, split, fast_band, t_back, n_t, tol, clip_bound):
    """Checks ``lyapunov_perron_fixed_point``'s options (raising their
    ConfigurationError and HorizonError), builds once what a graph's points
    share, and returns ``solve(v0_S, max_iter, gap_report)``, the fixed point
    over v0_S.  The work buffers: the ping-pong pair of iterates, the
    sources, the coupled source ``S``, and two flat buffers viewed as
    C-contiguous (n_t, width) columns, ``work`` for the v scans (a scan over
    the iterate's strided columns is about twice as slow) and ``temp`` for
    the scans' products and the norms.  A point leaves nothing in them that
    the next reads.
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
    if fast_band < 1:
        raise ConfigurationError("truncation leaves no fast v-modes")
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
    if n_t < 8:
        raise ConfigurationError("n_t must be at least 8")

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
    work, temp = np.empty(n_t * n_modes), np.empty(n_t * n_modes)
    work_vf, work_vs = (work[: n_t * w].reshape(n_t, w) for w in (n_modes - k0, k0))
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

    def solve(v0_S, max_iter, gap_report) -> ManifoldPoint:
        v0 = _slow_data(v0_S, k0)
        # Y = (U, V): band amplitudes of the backward trajectories, (2, n_t, n_modes)
        Y, Y_new = iterates
        Y[0] = 0.0
        Y[1, :, fast] = 0.0
        np.multiply(slow_growth, v0, out=Y[1, :, slow])

        ratios = []
        prev_dist = None
        bad_streak = 0
        converged = False
        iterations = 0
        for iterations in range(1, max_iter + 1):
            n_u, psi = _sources(params, grid, Y, clip_bound, sources)
            _convolve_forward(kernel_u, n_u, Y_new[0], temp_u)
            np.multiply(coupling, Y[0], out=S)
            np.add(S, psi, out=S)
            Y_new[1, :, fast] = _convolve_forward(kernel_vf, S[:, fast], work_vf, temp_vf)
            Y_new[1, :, slow] = _propagate_slow_backward(
                kernel_vs, v0, S[:, slow], work_vs, temp_vs
            )
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
        contraction = max(ratios[1:], default=(ratios[0] if ratios else 0.0))
        u_end, v_end = Y[:, -1]
        return ManifoldPoint(
            grid=grid,
            v_slow=np.asarray(v0_S, dtype=float).copy(),
            u_coeffs=np.pad(u_end, (0, grid.N - n_modes)),
            v_fast_coeffs=np.pad(v_end[fast], (k0, grid.N - n_modes)),
            iterations=iterations,
            contraction=float(contraction),
            converged=converged,
            t_back=t_back,
            n_t=n_t,
        )

    return solve


def lyapunov_perron_fixed_point(
    v0_S,
    params: ModelParams,
    split: SplittingParams,
    fast_band: int | None = None,
    t_back: float | None = None,
    n_t: int = 512,
    tol: float = 1e-8,
    max_iter: int = 200,
    gap_report: GapReport | None = None,
    clip_bound: float | None = None,
) -> ManifoldPoint:
    """Fixed point of the discretized Lyapunov-Perron map over slow data v0_S.

    ``v0_S`` holds the k0 slow v-coefficients.  The truncation keeps
    n_modes = k0 + fast_band modes (fast_band defaults to 3 k0) on the grid
    ``_graph_grid(params, n_modes)``.  The default backward horizon
    20 eps ln(1/tol) is extended automatically when the slowest retained
    kernel needs longer to reach the tail target tol/10; an explicitly
    passed ``t_back`` that is too short raises HorizonError instead.  Three
    consecutive non-contracting sweeps raise ContractionError carrying the
    gap report.

    For the nonlinear kind, pass ``clip_bound`` (the invariant-box bound,
    e.g. K_{0,M}) to saturate the quadratic terms in the far past; backward
    slow-mode growth otherwise feeds the quadratics and large data diverges.
    ``clip_bound`` and ``t_back``, where given, must be finite and > 0, and
    ``tol`` must lie in (0, 1).

    One graph point of ``lyapunov_perron_sweep``: the same solver
    (``_graph_solver``), built here for this point alone.
    """
    solve = _graph_solver(params, split, fast_band, t_back, n_t, tol, clip_bound)
    return solve(v0_S, max_iter, gap_report)


@dataclass
class ManifoldGraph:
    """Sampled graph of the slow manifold over slow-coefficient vectors.

    ``lipschitz_ratio`` is the largest ratio, over pairs of points, of the H2
    distance of their graph values to that of their slow data (nan if < 2).
    """

    k0: int
    points: list
    lipschitz_ratio: float = field(init=False, default=float("nan"))

    def __post_init__(self):
        if len(self.points) < 2:
            return
        nw = _h2_weights(self.points[0].grid)
        best = 0.0
        for a, b in itertools.combinations(self.points, 2):
            dv = a.v_slow - b.v_slow
            dnorm = math.sqrt(float(np.sum(nw[: self.k0] * dv**2)))
            if dnorm < 1e-14:
                continue
            du = math.sqrt(float(np.sum(nw * (a.u_coeffs - b.u_coeffs) ** 2)))
            dvf = math.sqrt(float(np.sum(nw * (a.v_fast_coeffs - b.v_fast_coeffs) ** 2)))
            best = max(best, (du + dvf) / dnorm)
        self.lipschitz_ratio = best


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
    """Graph points over a list of slow-coefficient vectors.

    Each point equals ``lyapunov_perron_fixed_point`` with the same options,
    bit for bit; the setup and the work buffers those options determine are
    built once for the whole graph, and every sample's shape is checked,
    before any point runs.  On two or more usable CPUs this process and
    forked children solve the points between them (``_parallel._fork_map``);
    each child inherits the setup and reuses its own copy of the buffers for
    the points it solves.  On one CPU they run in turn in this process.
    Either way the points come back in ``v0_samples`` order, and a point's
    error reaches the caller from the first failing point in that order.
    """
    solve = _graph_solver(params, split, fast_band, t_back, n_t, tol, clip_bound)
    samples = [_slow_data(v0, split.k0) for v0 in v0_samples]
    points = _fork_map(solve, [(v0, max_iter, gap_report) for v0 in samples])
    return ManifoldGraph(k0=split.k0, points=points)


# ---------------------------------------------------------------------------
# attraction-based manifold estimate


@dataclass(frozen=True)
class AttractionSample:
    """Approximate graph entry from forward integration off the critical manifold."""

    grid: Grid
    v_slow: np.ndarray
    u_coeffs: np.ndarray
    v_fast_coeffs: np.ndarray
    tau: float


def attraction_projection(
    v0_S,
    params: ModelParams,
    split: SplittingParams,
    tau: float | None = None,
) -> AttractionSample:
    """Integrate forward from the critical-manifold point over (v0_S, 0).

    Runs for tau (default 5 eps ln(1/eps), which needs eps < 1) with the
    step min(eps/2, tau/200) on the grid of a Lyapunov-Perron graph with the
    default band, and re-reads the terminal fast components against the
    terminal slow components, an O(e^{-c tau} + eps) manifold sample.
    """
    if tau is None:
        if params.eps >= 1.0:
            raise ConfigurationError(
                f"the default tau = 5 eps ln(1/eps) needs eps < 1, got {params.eps}; pass tau"
            )
        tau = 5.0 * params.eps * math.log(1.0 / params.eps)
    if tau < 0:
        raise ConfigurationError(f"tau must be >= 0, got {tau}")
    k0 = split.k0
    grid = _graph_grid(params, 4 * k0)
    v0 = SpectralField(grid, _embed_slow(grid, v0_S, k0))
    if params.is_linear:
        u0 = SpectralField(grid, 0.5 * v0.coeffs)
    else:
        u0 = critical_map_u_of_v(v0, params.kappa)
    if tau == 0.0:
        return AttractionSample(
            grid=grid,
            v_slow=np.asarray(v0_S, dtype=float).copy(),
            u_coeffs=u0.coeffs.copy(),
            v_fast_coeffs=np.zeros(grid.N),
            tau=0.0,
        )
    dt = min(0.5 * params.eps, tau / 200.0)
    traj = simulate(FastSlowState(u0, v0, 0.0), params, T=tau, dt=dt, sample_every=10**9)
    u_end, v_end = traj.coeffs[-1]
    return AttractionSample(
        grid=grid,
        v_slow=v_end[:k0].copy(),
        u_coeffs=u_end.copy(),
        v_fast_coeffs=np.where(np.arange(grid.N) >= k0, v_end, 0.0),
        tau=tau,
    )


# ---------------------------------------------------------------------------
# resolvent bounds


@dataclass(frozen=True)
class ResolventReport:
    alpha: float
    beta: float
    worst_ratio_resolvent: float
    worst_mode_resolvent: int
    worst_ratio_shifted: float
    worst_mode_shifted: int
    passes: bool


def resolvent_bound_check(params: ModelParams, grid: Grid, alpha: float, beta: float) -> ResolventReport:
    """Per-mode check of the two resolvent estimates of (eps (d+delta) Dxx - Id)^-1.

    The first quantity mu^(alpha-beta) / |eps (d+delta) lam - 1| is tested
    against 1 for alpha <= beta and eps^{2(beta-alpha)} for alpha > beta,
    over every retained mode; the second quantity (the Id-shifted operator)
    against eps^{2(beta-alpha)} over the resolvent-scale modes
    mu <= 1/(eps (d+delta)) only: above that scale the shifted operator
    approaches the identity mode-wise and the stated bound provably fails
    (the quantity grows like mu^(alpha-beta) unchecked).  Mode 0 uses the
    conventions 0^0 = 1 and 0^positive = 0 and is skipped where the
    exponent is negative.
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ConfigurationError("alpha and beta must lie in [0, 1]")
    eps, dd = params.eps, params.d + params.delta
    expo = alpha - beta
    bound1 = 1.0 if alpha <= beta else eps ** (2.0 * (beta - alpha))
    bound2 = eps ** (2.0 * (beta - alpha))
    mu_resolvent = 1.0 / (eps * dd) if dd > 0 else float("inf")
    worst1, arg1 = 0.0, 0
    worst2, arg2 = 0.0, 0
    for k in range(grid.N):
        mu = grid.mu[k]
        denom = eps * dd * mu + 1.0
        if mu == 0.0:
            if expo > 0:
                power = 0.0
            elif expo == 0:
                power = 1.0
            else:
                continue
        else:
            power = mu**expo
        q1 = power / denom
        q2 = eps * dd * mu * power / denom
        if q1 / bound1 > worst1:
            worst1, arg1 = q1 / bound1, k
        if mu <= mu_resolvent and q2 / bound2 > worst2:
            worst2, arg2 = q2 / bound2, k
    return ResolventReport(
        alpha=alpha,
        beta=beta,
        worst_ratio_resolvent=worst1,
        worst_mode_resolvent=arg1,
        worst_ratio_shifted=worst2,
        worst_mode_shifted=arg2,
        passes=bool(worst1 <= 1.0 + 1e-12 and worst2 <= 1.0 + 1e-12),
    )
