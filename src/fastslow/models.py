"""Reaction terms of the two model families and their Lipschitz budgets.

Nonlinear (fast reversible reaction with Lotka-Volterra competition):

    g(x, y)   = -x + kappa (y - x)^2
    phi(x, y) = (a - b x - c y) x
    psi(x, y) = (a - b x - c y) y

Linear reversible reaction:  g(x, y) = y - 2x,  phi = psi = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = ["ModelParams", "ReactionEval", "eval_reaction", "lipschitz_estimates"]

NONLINEAR = "nonlinear"
LINEAR = "linear"


@dataclass(frozen=True)
class ModelParams:
    """Physical and scale parameters of the fast-slow system.

    ``d`` base diffusion, ``delta`` cross diffusion, ``eps`` time-scale
    separation, ``kappa`` reaction scale, ``a, b, c`` competition constants,
    ``L`` domain length.  ``model_kind`` selects the nonlinear family or the
    linear reversible reaction (g = v - 2u, phi = psi = 0).
    """

    d: float
    delta: float
    eps: float
    kappa: float = 1.0
    a: float = 1.0
    b: float = 1.0
    c: float = 1.0
    L: float = math.pi
    model_kind: str = NONLINEAR

    def __post_init__(self):
        if self.model_kind not in (NONLINEAR, LINEAR):
            raise ConfigurationError(f"unknown model kind {self.model_kind!r}")
        for name in ("d", "delta", "eps", "kappa", "a", "b", "c", "L"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.d > 0:
            raise ConfigurationError(f"base diffusion must be positive, got d={self.d}")
        if self.delta < 0:
            raise ConfigurationError(f"cross diffusion must be >= 0, got {self.delta}")
        if not self.eps > 0:
            raise ConfigurationError(f"time-scale separation must be positive, got {self.eps}")
        if not self.L > 0:
            raise ConfigurationError(f"domain length must be positive, got {self.L}")
        if self.model_kind == NONLINEAR:
            # a = b = c = 0 (reactions off) and kappa = 0 are legitimate
            # degenerate cases used by conservation checks, hence >= 0.
            for name in ("kappa", "a", "b", "c"):
                if getattr(self, name) < 0:
                    raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def is_linear(self) -> bool:
        return self.model_kind == LINEAR


@dataclass(frozen=True)
class ReactionEval:
    """Values and first partial derivatives of g, f_tilde, phi, psi at (x, y)."""

    g: np.ndarray
    f_tilde: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray


def eval_reaction(params: ModelParams, x, y) -> ReactionEval:
    """Evaluate the model nonlinearities and their gradients pointwise.

    Works on scalars or numpy arrays of matching shape.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if params.is_linear:
        zero = np.zeros(np.broadcast(x, y).shape)
        return ReactionEval(
            g=y - 2.0 * x,
            f_tilde=y + zero,  # remainder of g after the -2x diagonal part
            phi=zero,
            psi=zero.copy(),
            g1=zero - 2.0,
            g2=zero + 1.0,
            phi1=zero.copy(),
            phi2=zero.copy(),
            psi1=zero.copy(),
            psi2=zero.copy(),
        )
    k, a, b, c = params.kappa, params.a, params.b, params.c
    w = y - x
    f_tilde = w**2
    lv = a - b * x - c * y
    return ReactionEval(
        g=-x + k * f_tilde,
        f_tilde=f_tilde,
        phi=lv * x,
        psi=lv * y,
        g1=-1.0 - 2.0 * k * w,
        g2=2.0 * k * w,
        phi1=a - 2.0 * b * x - c * y,
        phi2=-c * x,
        psi1=-b * y,
        psi2=a - b * x - 2.0 * c * y,
    )


def _competition(params: ModelParams, x, y):
    """The Lotka-Volterra factor a - b x - c y of phi = (.) x and psi = (.) y,
    as a new array."""
    # (a - b x) - c y in one buffer, in the order of the written expression
    # and so with its bits
    lv = np.multiply(x, params.b)
    np.subtract(params.a, lv, out=lv)
    lv -= np.multiply(y, params.c)
    return lv


def node_remainder(params: ModelParams, x, y):
    """The remainder (kappa f~(x, y)/eps + phi(x, y), psi(x, y)) at node values.

    This is the part of the nonlinear kind's right-hand side that the
    exponential steppers and the Lyapunov-Perron map treat explicitly (the
    -x/eps part of g is linear); every solver evaluates it here, on the
    padded nodes, and transforms the result back.  The limit system's
    remainder is its second component alone, ``node_psi``.
    """
    lv = _competition(params, x, y)
    # (kappa/eps) (y - x)^2 + lv x with two temporaries instead of six;
    # IEEE products and sums commute, so the bits are those of the formula
    w = np.subtract(y, x)
    w *= w
    w *= params.kappa / params.eps
    n_u = np.multiply(lv, x)
    n_u += w
    lv *= y
    return n_u, lv


def node_psi(params: ModelParams, x, y):
    """psi(x, y) = (a - b x - c y) y at node values, the second component of
    ``node_remainder`` computed alone."""
    lv = _competition(params, x, y)
    lv *= y
    return lv


def lipschitz_estimates(params: ModelParams, M: float, constants=None):
    """Scalar Lipschitz budgets (L_f, L_phi, L_psi) on the invariant box.

    L_f = kappa * 12 * C_star * K_M with the constants chain from
    :func:`fastslow.reduction.theoretical_constants`; L_phi and L_psi are the
    suprema of the l1 gradient norms of phi, psi over the box
    [0, K_{0,M}]^2, attained at the corners since both gradients are affine.

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
        from .reduction import theoretical_constants

        constants = theoretical_constants(params, M)
    L_f = params.kappa * 12.0 * constants.C_star * constants.K_M
    K0 = constants.K0
    r = eval_reaction(params, [0.0, 0.0, K0, K0], [0.0, K0, 0.0, K0])
    L_phi = float(np.max(np.abs(r.phi1) + np.abs(r.phi2)))
    L_psi = float(np.max(np.abs(r.psi1) + np.abs(r.psi2)))
    return L_f, L_phi, L_psi
