"""Cosine-spectral discretization of the interval (0, L) with Neumann data.

A scalar field is stored through the coefficients of

    w(x) = w_0 + sum_{k>=1} w_k cos(k pi x / L),

sampled at the half-sample collocation nodes x_j = L (j + 1/2) / N.  On these
nodes the type-II DCT is an exact change of basis, Neumann symmetry is built
in (every basis function has vanishing derivative at both ends), and
quadratic products dealias exactly under 3/2 zero padding: a product of two
fields with modes < N produces modes < 2N - 1, which on the padded grid of
3N/2 nodes alias only onto modes >= N + 2, i.e. outside the retained band.

Every dealiased pointwise map (``nonlinear_eval``, the remainder of the time
loop, the limit system's u = h_kappa(v), and the Lyapunov-Perron sources)
goes through one helper, ``_dealiased``: pad to the 3N/2 nodes, map the node
values, transform back and truncate to the N retained modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dct

from .errors import ConfigurationError, ShapeError

__all__ = [
    "Grid",
    "SpectralField",
    "build_grid",
    "cosine_transform",
    "sobolev_norm",
    "nonlinear_eval",
    "laplacian_symbol",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Collocation grid on (0, L) with N half-sample nodes and N cosine modes.

    ``mu[k] = (k pi / L)^2`` is the magnitude of the Neumann Laplacian
    eigenvalue of mode k; mode k = 0 is the constant.  The retained band is
    k = 0 .. K with K = N - 1.
    """

    L: float
    N: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    mu: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.L > 0:
            raise ConfigurationError(f"domain length must be positive, got L={self.L}")
        if not _is_power_of_two(self.N) or self.N < 8:
            raise ConfigurationError(
                f"node count must be a power of two >= 8, got N={self.N}"
            )
        j = np.arange(self.N)
        object.__setattr__(self, "nodes", self.L * (j + 0.5) / self.N)
        object.__setattr__(self, "mu", (np.arange(self.N) * np.pi / self.L) ** 2)

    @property
    def K(self) -> int:
        return self.N - 1

    @property
    def padded_size(self) -> int:
        return (3 * self.N) // 2


def build_grid(L: float, N: int) -> Grid:
    """Construct the collocation grid; rejects non-power-of-two N and L <= 0."""
    return Grid(L=float(L), N=int(N))


def _forward(values: np.ndarray) -> np.ndarray:
    # DCT-II, then rescale so coeffs are plain cosine amplitudes.
    n = values.shape[-1]
    coeffs = dct(values, type=2, axis=-1) / n
    coeffs[..., 0] *= 0.5
    return coeffs


def _inverse(coeffs: np.ndarray, n_nodes=None) -> np.ndarray:
    # DCT-III evaluates w_0 + sum w_k cos(.) after halving the k >= 1 amplitudes.
    scaled = np.array(coeffs, dtype=float, copy=True)
    scaled[..., 1:] *= 0.5
    if n_nodes is not None and n_nodes > scaled.shape[-1]:
        pad = n_nodes - scaled.shape[-1]
        scaled = np.concatenate(
            [scaled, np.zeros(scaled.shape[:-1] + (pad,))], axis=-1
        )
    return dct(scaled, type=3, axis=-1)


def cosine_transform(grid: Grid, data, direction: str = "forward"):
    """Exact change of basis between node samples and cosine amplitudes.

    ``forward`` maps N node values to the N amplitudes (w_0, .., w_K);
    ``inverse`` is its exact inverse.
    """
    arr = np.asarray(data, dtype=float)
    if arr.shape[-1] != grid.N:
        raise ShapeError(
            f"expected length {grid.N} along the last axis, got {arr.shape[-1]}"
        )
    if direction == "forward":
        return _forward(arr)
    if direction == "inverse":
        return _inverse(arr)
    raise ConfigurationError(f"unknown transform direction {direction!r}")


@dataclass(frozen=True)
class SpectralField:
    """A scalar field on (0, L) held as cosine amplitudes."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float, copy=True)
        if c.shape != (self.grid.N,):
            raise ShapeError(
                f"coefficient vector must have length {self.grid.N}, got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ShapeError("non-finite coefficient in spectral field")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_values(cls, grid: Grid, values) -> "SpectralField":
        return cls(grid, cosine_transform(grid, values, "forward"))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "SpectralField":
        return cls.from_values(grid, fn(grid.nodes))

    @classmethod
    def zero(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros(grid.N))

    def values(self) -> np.ndarray:
        return _inverse(self.coeffs)

    def sobolev_norm(self, order: int) -> float:
        return sobolev_norm(self, order)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__


def _require_same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid is not g and (f.grid.L != g.L or f.grid.N != g.N):
            raise ShapeError("fields live on different grids")
    return g


def sobolev_norm(w: SpectralField, order: int) -> float:
    """L2 / H1 / H2 norm from the amplitudes.

    ||w||_{L2}^2 = L w_0^2 + (L/2) sum_{k>=1} w_k^2; each extra order adds a
    factor mu_k per squared amplitude.
    """
    if order not in (0, 1, 2):
        raise ConfigurationError(f"Sobolev order must be 0, 1 or 2, got {order}")
    return float(np.sqrt(_sobolev_squares(w.grid, w.coeffs, order)[order]))


def _sobolev_squares(grid: Grid, coeffs: np.ndarray, order: int) -> list:
    """Squared L2, .., H^order norms of amplitude arrays along the last axis."""
    c2 = coeffs**2
    weights = np.full(grid.N, grid.L / 2.0)
    weights[0] = grid.L
    total = np.sum(weights * c2, axis=-1)
    out = [total]
    if order >= 1:
        total = total + np.sum(weights[1:] * grid.mu[1:] * c2[..., 1:], axis=-1)
        out.append(total)
    if order == 2:
        total = total + np.sum(weights[1:] * grid.mu[1:] ** 2 * c2[..., 1:], axis=-1)
        out.append(total)
    return out


def _dealiased(grid: Grid, coeffs: np.ndarray, node_map) -> np.ndarray:
    """Amplitudes of a pointwise map of fields given by their amplitudes.

    ``coeffs`` (..., N) is evaluated on the 3N/2 padded nodes, ``node_map``
    takes those node values and returns the mapped ones (it may overwrite
    its argument and return it), and the result is transformed back and
    truncated to N modes.  Exact for quadratic maps.
    """
    vals = _inverse(coeffs, n_nodes=grid.padded_size)
    return _forward(node_map(vals))[..., : grid.N]


def nonlinear_eval(fields, F) -> SpectralField:
    """Dealiased pointwise evaluation F(w_1, .., w_m) -> SpectralField.

    Zero-pads to 3N/2 nodes, applies F to the node values, transforms back
    and truncates.  Exact for the quadratic nonlinearities of the model.
    """
    fields = list(fields)
    grid = _require_same_grid(*fields)

    def node_map(vals):
        result = np.asarray(F(*vals), dtype=float)
        if result.shape != vals[0].shape:
            raise ShapeError("pointwise map must preserve the node-value shape")
        return result

    return SpectralField(grid, _dealiased(grid, np.stack([f.coeffs for f in fields]), node_map))


def laplacian_symbol(grid: Grid, k: int) -> float:
    """Per-mode Laplacian eigenvalue -mu_k (Neumann)."""
    if not 0 <= k <= grid.K:
        raise IndexError(f"mode index {k} outside 0..{grid.K}")
    return -float(grid.mu[k])
