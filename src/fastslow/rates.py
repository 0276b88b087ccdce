"""Error norms between fast-slow and limit trajectories, and rate fitting.

A convergence study runs the full system and the reduced system on the same
grid with the same time step and sample times (each member steps both in
one time loop, ``reduction._simulate_with_limit``), measures

    E_LinfL2 = max_n ( ||U(t_n)||_L2 + ||V(t_n)||_L2 ),
    E_L2H1   = ( sum_n dt ( ||U||_H1^2 + ||V||_H1^2 ) )^(1/2),
    E_LinfH2 = max_n ( ||U||_H2 + ||V||_H2 ),

with U = u_eps - h_kappa(v), V = v_eps - v, and fits log E against log eps.
Each norm is also reported with the initial layer skipped (samples with
t >= 5 eps), since the sup-in-time norms carry the e^{-t/eps} transient.

The study checks every option and the initial data, and builds every
member's inputs, before any member runs.  The members are independent, so
with two or more CPUs in ``os.sched_getaffinity(0)`` they run in parallel
through ``_parallel._fork_map``.  The members are submitted smallest eps
first, so the calling process runs the member with the most steps, and
forked children take the others, one worker per CPU, with no thread or
process pool.  A forked child inherits the imports and the transform
caches.  The results are put back in ``eps_list`` order, so the report is
the same as when the members run one after another in this process, as
they do on one CPU.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from ._parallel import _fork_map
from .errors import ConfigurationError, DivergenceError, ShapeError
from .integrator import DEFAULT_CT, FastSlowState, Trajectory, _step_count
from .models import ModelParams
from .reduction import _simulate_with_limit, initial_layer
from .spectral_core import SpectralField, _sobolev_squares

__all__ = [
    "ErrorNorms",
    "ConvergenceRun",
    "ConvergenceReport",
    "trajectory_error_norms",
    "convergence_study",
    "fit_order",
]

LAYER_SKIP_FACTOR = 5.0  # post-layer norms use samples with t >= 5 eps
FIT_NORMS = ("E_LinfL2", "E_L2H1", "E_LinfH2", "E_LinfH2_postlayer")  # orders fitted


@dataclass(frozen=True)
class ErrorNorms:
    E_LinfL2: float
    E_L2H1: float
    E_LinfH2: float
    E_LinfL2_postlayer: float
    E_LinfH2_postlayer: float


def trajectory_error_norms(
    traj_eps: Trajectory, traj_limit: Trajectory, t_skip: float = 0.0
) -> ErrorNorms:
    """Error norms between two trajectories sampled at identical, uniformly
    spaced times on one grid.

    The limit trajectory's u-component must already be the algebraic
    reconstruction h_kappa(v) (solve_limit_system stores it that way).
    """
    ta, tb = traj_eps.times, traj_limit.times
    if traj_eps.grid != traj_limit.grid:
        raise ShapeError("trajectories live on different grids")
    if len(ta) < 2:
        raise ShapeError("need at least two samples")
    if len(ta) != len(tb) or np.max(np.abs(ta - tb)) > 1e-10 * max(1.0, ta[-1]):
        raise ShapeError("trajectories are sampled at different times")
    steps = np.diff(ta)
    dt = float(steps[0])
    if np.max(np.abs(steps - dt)) > 1e-9 * abs(dt):
        raise ShapeError("error norms need uniformly spaced sample times")
    # squared L2, H1, H2 norms of U and V per sample, shape (n_samples, 2) each
    sq0, sq1, sq2 = _sobolev_squares(
        traj_eps.grid, traj_eps.coeffs - traj_limit.coeffs, 2
    )
    l2 = np.sqrt(sq0).sum(axis=1)
    # float_power squares through libm pow, as Python's float ** 2 does,
    # so E_L2H1 keeps the bits of summing squared per-field H1 norms
    h1sq = np.float_power(np.sqrt(sq1), 2).sum(axis=1)
    h2 = np.sqrt(sq2).sum(axis=1)
    post = ta >= t_skip - 1e-12
    if not np.any(post):
        post = np.zeros_like(post)
        post[-1] = True
    return ErrorNorms(
        E_LinfL2=float(np.max(l2)),
        E_L2H1=float(math.sqrt(np.sum(dt * h1sq))),
        E_LinfH2=float(np.max(h2)),
        E_LinfL2_postlayer=float(np.max(l2[post])),
        E_LinfH2_postlayer=float(np.max(h2[post])),
    )


def fit_order(eps_values, errors):
    """Slope and residual of the least-squares fit of log(err) vs log(eps),
    over distinct eps and one error per eps, all finite and positive."""
    eps = np.asarray(eps_values, dtype=float)
    err = np.asarray(errors, dtype=float)
    if eps.shape != err.shape:
        raise ConfigurationError(f"order fit got {eps.size} eps values and {err.size} errors")
    if eps.size < 2:
        raise ConfigurationError("order fit needs at least two runs")
    for name, values in (("eps", eps), ("error", err)):
        bad = values[~(np.isfinite(values) & (values > 0.0))]
        if bad.size:
            raise ConfigurationError(f"order fit needs finite positive {name} values, got {bad[0]}")
    if np.unique(eps).size < eps.size:
        raise ConfigurationError(f"order fit needs distinct eps values, got {eps.tolist()}")
    coef, res = np.polyfit(np.log(eps), np.log(err), 1, full=True)[:2]
    residual = float(res[0]) if len(res) else 0.0
    return float(coef[0]), residual


@dataclass(frozen=True)
class ConvergenceRun:
    eps: float
    delta: float
    eps_in: float
    norms: ErrorNorms | None
    wall_s: float
    failure: str | None = None


@dataclass
class ConvergenceReport:
    runs: list
    orders: dict = field(default_factory=dict)
    fit_residual: float = float("nan")
    plateau: bool = False


def _delta_of(eps, delta_rule):
    kind = delta_rule.get("type", "power")
    if kind == "power":
        return eps ** float(delta_rule.get("p", 1.5))
    if kind == "fixed":
        if delta_rule.get("value") is None:
            raise ConfigurationError("a fixed delta rule needs a value")
        return float(delta_rule["value"])
    if kind == "zero":
        return 0.0
    raise ConfigurationError(f"unknown delta rule {kind!r}")


def _run_member(state0, params, T, dt, sample_every, eps_in) -> ConvergenceRun:
    """One member of a study: both systems stepped together, then compared."""
    start = time.perf_counter()
    try:
        traj, limit = _simulate_with_limit(state0, params, T, dt, sample_every)
    except DivergenceError as exc:
        return ConvergenceRun(
            params.eps, params.delta, eps_in, None, time.perf_counter() - start, failure=str(exc)
        )
    norms = trajectory_error_norms(traj, limit, t_skip=LAYER_SKIP_FACTOR * params.eps)
    return ConvergenceRun(params.eps, params.delta, eps_in, norms, time.perf_counter() - start)


def convergence_study(
    params: ModelParams,
    u_in: SpectralField,
    v_in: SpectralField,
    eps_list,
    T: float,
    delta_rule=None,
    dt_factor: float = 0.5,
    n_samples: int = 100,
) -> ConvergenceReport:
    """Run the eps sweep and fit convergence orders.

    For each eps the full system and the limit system are integrated
    together, with the same time step dt = dt_factor * eps (shrunk to land
    on T), and compared at the same ~n_samples sample times.  ``delta_rule`` is
    {"type": "power", "p": 1.5} (default), {"type": "fixed", "value": v} or
    {"type": "zero"}.  Divergent runs are recorded and skipped by the fit.
    Every option and the initial data are checked before any member runs.
    The members are independent; on two or more usable CPUs this process
    and forked children run them between them, and the report is the same
    either way.  They are run smallest eps first, so where two members
    raise, the error of the one with the smaller eps is the one raised.
    """
    eps_list = list(eps_list)
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ConfigurationError("eps list must be strictly decreasing")
    if not all(0 < eps < math.inf for eps in eps_list):
        # before the delta rule: a negative eps ** p is complex
        raise ConfigurationError(f"eps values must be finite and positive, got {eps_list}")
    if T == 0:
        # no step, so no two samples to compare; _step_count rejects the
        # other bad horizons
        raise ConfigurationError("a convergence study needs a final time T > 0")
    if n_samples < 1:
        raise ConfigurationError(f"a convergence study needs n_samples >= 1, got {n_samples}")
    if not 0 < dt_factor < math.inf:
        raise ConfigurationError(f"dt_factor must be finite and positive, got {dt_factor}")
    if not params.is_linear and dt_factor > DEFAULT_CT:
        raise ConfigurationError(
            f"dt_factor={dt_factor} exceeds the nonlinear kind's stability bound {DEFAULT_CT}"
        )
    if delta_rule is None:
        delta_rule = {"type": "power", "p": 1.5}
    # eps_in depends on the data and kappa only, not on eps or delta; its
    # checks of the data include the limit system's v_in >= 0
    eps_in = initial_layer(u_in, v_in, params).eps_in
    state0 = FastSlowState(u_in, v_in, 0.0)
    members = []
    for eps in eps_list:
        p = dc_replace(params, eps=eps, delta=_delta_of(eps, delta_rule))
        dt = dt_factor * eps if not p.is_linear else T / 2000.0
        n_steps, _ = _step_count(T, dt)
        sample_every = max(1, n_steps // n_samples)
        # land the step count on a multiple of the sampling stride
        n_steps = sample_every * math.ceil(n_steps / sample_every)
        members.append((state0, p, T, T / n_steps, sample_every, eps_in))
    # the last member (smallest eps) has the most steps: submitted first, so
    # the caller runs it
    runs = _fork_map(_run_member, members[::-1])[::-1]
    report = ConvergenceReport(runs=runs)
    ok = [r for r in runs if r.norms is not None]
    if len(ok) >= 2:
        eps_ok = [r.eps for r in ok]
        residuals = []
        for name in FIT_NORMS:
            vals = [getattr(r.norms, name) for r in ok]
            if min(vals) <= 0.0:
                continue
            order, res = fit_order(eps_ok, vals)
            report.orders[name] = order
            residuals.append(res)
        report.fit_residual = float(max(residuals)) if residuals else float("nan")
        primary = [r.norms.E_LinfL2 for r in ok]
        report.plateau = any(b > 0.9 * a for a, b in zip(primary, primary[1:]))
    return report
