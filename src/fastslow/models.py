"""Reaction terms of the two model families.

Nonlinear (fast reversible reaction with Lotka-Volterra competition):

    g(x, y)   = -x + kappa (y - x)^2
    phi(x, y) = (a - b x - c y) x
    psi(x, y) = (a - b x - c y) y

Linear reversible reaction:  g(x, y) = y - 2x,  phi = psi = 0.

Each formula is written once, at node values: the solvers' remainders and the
gradients of phi and psi that ``reduction``'s invariant-box bounds read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

__all__ = ["ModelParams"]

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

    @cached_property
    def _node_scalars(self) -> tuple:
        """(a, b, c, kappa/eps) as read-only 0-d arrays, the operands of the
        remainders' ufunc calls: a ufunc converts a Python float operand
        anew on every call, which on converge's 192 padded nodes cost about
        a third of the call."""
        scalars = tuple(np.array(v) for v in (self.a, self.b, self.c, self.kappa / self.eps))
        for arr in scalars:
            arr.flags.writeable = False
        return scalars


def _competition(params: ModelParams, x, y, out=None, temp=None):
    """The Lotka-Volterra factor a - b x - c y of phi = (.) x and psi = (.) y,
    written into ``out``, with c y formed in ``temp`` (new arrays where not
    given)."""
    a, b, c, _ = params._node_scalars
    # (a - b x) - c y in one buffer, in the order of the written expression
    # and so with its bits
    lv = np.multiply(x, b, out=out)
    np.subtract(a, lv, out=lv)
    lv -= np.multiply(y, c, out=temp)
    return lv


def node_remainder(params: ModelParams, x, y, out=None, work=None):
    """The remainder (kappa f~(x, y)/eps + phi(x, y), psi(x, y)) at node values.

    This is the part of the nonlinear kind's right-hand side that the
    exponential steppers and the Lyapunov-Perron map treat explicitly (the
    -x/eps part of g is linear); every solver evaluates it here, on the
    padded nodes, and transforms the result back.  The limit system's
    remainder is its second component alone, ``node_psi``.

    ``out``, a pair of arrays of x's shape, receives the two components and
    may be (x, y) itself: the solvers' node maps overwrite their node rows
    so.  Without it they are new arrays, and x and y are left as they are.
    The two temporaries are formed in ``work[0]`` and ``work[1]`` (a new
    buffer where not given).
    """
    if work is None:
        work = np.empty((2,) + x.shape)
    # (kappa/eps) (y - x)^2 + lv x; IEEE products and sums commute, so the
    # bits are those of the formula
    lv = _competition(params, x, y, work[0], work[1])
    w = np.subtract(y, x, out=work[1])
    w *= w
    w *= params._node_scalars[3]
    n_u, n_v = (None, None) if out is None else out
    # x and y are read for the last time here, so out may be (x, y)
    n_u = np.multiply(lv, x, out=n_u)
    n_u += w
    return n_u, np.multiply(lv, y, out=n_v)


def node_psi(params: ModelParams, x, y, out=None, work=None):
    """psi(x, y) = (a - b x - c y) y at node values, the second component of
    ``node_remainder`` computed alone, written into ``out`` (which may be y)
    where given, with its temporaries in ``work[0]`` and ``work[1]`` as
    there."""
    if work is None:
        work = np.empty((2,) + x.shape)
    lv = _competition(params, x, y, work[0], work[1])
    return np.multiply(lv, y, out=out)


def _reaction_gradients(params: ModelParams, x, y):
    """(phi_x, phi_y, psi_x, psi_y), the partial derivatives of the nonlinear
    kind's phi and psi at node values."""
    a, b, c = params.a, params.b, params.c
    return a - 2.0 * b * x - c * y, -c * x, -b * y, a - b * x - 2.0 * c * y
