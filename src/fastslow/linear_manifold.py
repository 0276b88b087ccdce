"""Closed forms for the linear reversible reaction, mode by mode.

With mu = (k pi / L)^2 the per-mode system

    u' = -[(d+delta) mu + 2/eps] u + v/eps
    v' = -delta mu u - d mu v

has eigenvalues w+-/(2 eps) with

    Omega = sqrt(eps^2 delta^2 mu^2 + 4),
    w+-   = +-Omega - eps (2d + delta) mu - 2,

and the slow eigenvector (2, Omega + eps delta mu + 2): data with
u0 = slope * v0, slope = 2 / (Omega + eps delta mu + 2), evolves purely on
the slow time scale.  slope -> 1/2 (the reduced constraint u = v/2) as
eps delta mu -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .models import ModelParams

__all__ = [
    "ModeSpectrum",
    "mode_spectrum",
    "closed_form_solution",
    "invariance_and_distance",
    "ModeInvarianceReport",
]

RATIO_SWITCH = 1e-8  # |v| below this: ratio defect switches to the affine defect


def _require_linear(params: ModelParams):
    if not params.is_linear:
        raise ConfigurationError("closed forms are defined for the linear kind only")


def _mu(params: ModelParams, k: int) -> float:
    return (k * math.pi / params.L) ** 2


@dataclass(frozen=True)
class ModeSpectrum:
    """Spectral data of one mode: rates, manifold slope, asymptotics."""

    k: int
    mu: float
    Omega: float
    w_plus: float
    w_minus: float
    slow_rate: float
    fast_rate: float
    slope: float
    asymptotic_slow_rate: float


def mode_spectrum(params: ModelParams, k: int) -> ModeSpectrum:
    """Exact rates and slow-manifold slope of mode k (linear kind)."""
    _require_linear(params)
    eps, delta, d = params.eps, params.delta, params.d
    try:
        mu = _mu(params, k)
        x = eps * delta * mu
        Omega = math.sqrt(x**2 + 4.0)  # OverflowError where x**2 overflows, inf where x does
        if Omega == math.inf:
            raise OverflowError
    except OverflowError:
        raise ConfigurationError(
            f"mode {k}: mu_k = (k pi / L)^2 or (eps delta mu_k)^2 is beyond the range of floats"
        ) from None
    w_plus = Omega - eps * (2 * d + delta) * mu - 2.0
    w_minus = -Omega - eps * (2 * d + delta) * mu - 2.0
    slope = 2.0 / (Omega + x + 2.0)
    # Taylor expansion of w_plus/(2 eps): the slow decay is slower than the
    # reduced rate by eps delta^2 mu^2 / 8 + O(eps^3).
    asym = -(2 * d + delta) * mu / 2.0 + eps * delta**2 * mu**2 / 8.0
    return ModeSpectrum(
        k=k,
        mu=mu,
        Omega=Omega,
        w_plus=w_plus,
        w_minus=w_minus,
        slow_rate=w_plus / (2 * eps),
        fast_rate=w_minus / (2 * eps),
        slope=slope,
        asymptotic_slow_rate=asym,
    )


def closed_form_solution(u_k0: float, v_k0: float, params: ModelParams, k: int, t):
    """Exact mode solution (u_k(t), v_k(t)) plus the limit mode v0_k(t).

    ``t`` may be a scalar or an array; t >= 0.
    """
    _require_linear(params)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ConfigurationError("closed form is evaluated for t >= 0")
    sp = mode_spectrum(params, k)
    eps, delta = params.eps, params.delta
    x = eps * delta * sp.mu
    ep = np.exp(t * sp.w_plus / (2 * eps))
    em = np.exp(t * sp.w_minus / (2 * eps))
    inv = 1.0 / sp.Omega
    u_k = (
        0.5 * inv * ((sp.Omega - x - 2.0) * ep + (sp.Omega + x + 2.0) * em) * u_k0
        + inv * (ep - em) * v_k0
    )
    v_k = (
        inv * x * (em - ep) * u_k0
        + 0.5 * inv * ((sp.Omega + x + 2.0) * ep - (-sp.Omega + x + 2.0) * em) * v_k0
    )
    v_limit = np.exp(-0.5 * t * (2 * params.d + delta) * sp.mu) * v_k0
    return u_k, v_k, v_limit


@dataclass(frozen=True)
class ModeInvarianceReport:
    k: int
    slope: float
    invariance_defect: float
    slope_gap: float          # |slope - 1/2|
    slope_gap_bound: float    # eps delta mu / 4, certified for eps delta mu <= 1
    slope_gap_certified: bool
    fitted_decay_rate: float
    fast_rate: float
    rate_rel_error: float
    used_affine_defect: bool


def invariance_and_distance(params: ModelParams, modes, T: float) -> list:
    """Per-mode invariance, distance-to-critical and attraction checks.

    For each mode: (i) the largest deviation of u_k/v_k from the slope along
    an on-manifold solution at 400 points of [0, T] (switching to the affine
    defect |u_k - slope v_k| where |v_k| < 1e-8), (ii) the gap |slope - 1/2|
    against the certified bound eps delta mu / 4, and (iii) the fitted decay
    rate of the off-manifold component over [0, 5 eps] against the fast rate.
    """
    _require_linear(params)
    if not (math.isfinite(T) and T >= 0.0):
        raise ConfigurationError(f"invariance check needs a finite T >= 0, got {T}")
    reports = []
    for k in modes:
        sp = mode_spectrum(params, k)
        t = np.linspace(0.0, T, 400)
        u, v, _ = closed_form_solution(sp.slope, 1.0, params, k, t)
        small = np.abs(v) < RATIO_SWITCH
        used_affine = bool(np.any(small))
        defect = np.where(small, np.abs(u - sp.slope * v), 0.0)
        safe = ~small
        defect[safe] = np.abs(u[safe] / v[safe] - sp.slope)
        invariance_defect = float(np.max(defect))

        gap = abs(sp.slope - 0.5)
        x = params.eps * params.delta * sp.mu
        bound = x / 4.0
        certified = bool(x <= 1.0)

        t_fit = np.linspace(0.0, 5 * params.eps, 80)[1:]
        u2, v2, _ = closed_form_solution(sp.slope + 1.0, 1.0, params, k, t_fit)
        w = u2 - sp.slope * v2  # pure fast eigen-coordinate
        mask = np.abs(w) > 1e-300
        # the fit needs two points, and np.polyfit scales their times by
        # their norm, which must be a normal float (not so at eps = 1e-300)
        norm = math.sqrt(np.dot(t_fit[mask], t_fit[mask]))
        if mask.sum() < 2 or not np.finfo(float).tiny <= norm < math.inf:
            raise ConfigurationError(
                f"mode {k}: the fast rate {sp.fast_rate:.3g} cannot be fitted over t <= 5 eps = "
                f"{5 * params.eps:.3g}: too few points above 1e-300, or no scale"
            )
        fitted = float(np.polyfit(t_fit[mask], np.log(np.abs(w[mask])), 1)[0])
        rel = abs(fitted - sp.fast_rate) / abs(sp.fast_rate)
        reports.append(
            ModeInvarianceReport(
                k=k,
                slope=sp.slope,
                invariance_defect=invariance_defect,
                slope_gap=gap,
                slope_gap_bound=bound,
                slope_gap_certified=certified,
                fitted_decay_rate=fitted,
                fast_rate=sp.fast_rate,
                rate_rel_error=rel,
                used_affine_defect=used_affine,
            )
        )
    return reports
