"""Cosine-spectral discretization of the interval (0, L) with Neumann data.

A scalar field is stored through the coefficients of

    w(x) = w_0 + sum_{k>=1} w_k cos(k pi x / L),

sampled at the half-sample collocation nodes x_j = L (j + 1/2) / N.  On these
nodes the type-II DCT is an exact change of basis, Neumann symmetry is built
in (every basis function has vanishing derivative at both ends), and
quadratic products dealias exactly under 3/2 zero padding: a product of two
fields with modes < N produces modes < 2N - 1, which on the padded grid of
3N/2 nodes alias only onto modes >= N + 2, i.e. outside the retained band.

Every dealiased pointwise map (``nonlinear_eval``, the limit system's
u = h_kappa(v), the Lyapunov-Perron sources, and the remainder of the time
loop on the real FFT pair) goes through one helper, ``_dealiased``: pad to
the 3N/2 nodes, map the node values, transform back and truncate.  Band
in, band out: the first K <= N amplitudes give the first K of the result
(the Lyapunov-Perron sweep passes its Galerkin band, every other caller
all N).  On grids up to
N = _MATRIX_MAX_N the two transforms of ``_dealiased`` are products with
matrices, since there a transform call costs more in dispatch than the
product costs in arithmetic.  By default they are taken row by row, which
keeps band in, band out bit for bit.  The Lyapunov-Perron sources (one
per block of time nodes) take them stacked, and the time loop takes the
same stacked products with the pair of its band's grid of K modes, one
gemm over the state's rows per transform, into its workspace: under gemm
a row's bits do not depend on its neighbours, but a band's do depend on
its width.  The pair is cached per (N, K) as C-contiguous band
matrices whose width is K rounded up to a multiple of 4: contiguous,
because a product through strided columns is slower, and rounded, because
only then does a row-by-row band call keep the bits of the N-wide one.

The cosine transforms are numpy's real FFT pair after Makhoul's even/odd
node permutation (IEEE Trans. ASSP 28, 1980): the even nodes in order, then
the odd ones backwards, plus one twiddle multiply per amplitude.  Larger
grids keep the padded node values of ``_dealiased`` in that permuted order,
so every node map must be pointwise: it sees the nodes in an order that is
not the order of x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, ShapeError

__all__ = [
    "Grid",
    "SpectralField",
    "build_grid",
    "sobolev_norm",
    "nonlinear_eval",
]

# Largest N whose dealiased transforms are matrix products (``_dealiased``).
_MATRIX_MAX_N = 128


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
        if not 0 < self.L < np.inf:
            raise ConfigurationError(f"domain length must be finite and positive, got L={self.L}")
        if not _is_power_of_two(self.N) or self.N < 8:
            raise ConfigurationError(
                f"node count must be a power of two >= 8, got N={self.N}"
            )
        j = np.arange(self.N)
        with np.errstate(over="ignore"):
            mu = (j * np.pi / self.L) ** 2
        if not np.isfinite(mu[-1]):
            raise ConfigurationError(
                f"domain length L={self.L} puts the Laplacian eigenvalue (k pi/L)^2 of mode "
                f"k={self.N - 1} beyond the range of floats"
            )
        object.__setattr__(self, "nodes", self.L * (j + 0.5) / self.N)
        object.__setattr__(self, "mu", mu)

    @property
    def K(self) -> int:
        return self.N - 1

    @property
    def padded_size(self) -> int:
        return (3 * self.N) // 2


def build_grid(L: float, N: int) -> Grid:
    """Construct the collocation grid; rejects non-power-of-two N, a
    non-finite or non-positive L, and an L so short that mu_k leaves the
    floats."""
    return Grid(L=float(L), N=int(N))


@lru_cache(maxsize=None)
def _twiddles(p: int) -> tuple:
    """Twiddle factors of the cosine pair on p nodes in permuted order.

    With W_k = exp(-i pi k / 2p), k = 0 .. p/2: ``inverse`` = (p/2) conj(W_k),
    p at k = 0, turns amplitudes into the half spectrum whose ``irfft`` gives
    the node values; ``forward`` = (2/p) W_k, 1/p at k = 0, turns the
    ``rfft`` of node values into amplitudes (see ``_permuted_forward``).
    """
    w = np.exp(-0.5j * np.pi / p * np.arange(p // 2 + 1))
    inverse = 0.5 * p * np.conj(w)
    inverse[0] = p
    forward = (2.0 / p) * w
    forward[0] = 1.0 / p
    # cached and shared by every caller: read-only
    inverse.flags.writeable = forward.flags.writeable = False
    return inverse, forward


def _permuted_inverse(coeffs: np.ndarray, p: int) -> np.ndarray:
    """Values at p >= K nodes, in permuted order, of the K amplitudes ``coeffs``.

    The half spectrum is Z_k = t_k (c_k - i c_{p-k}), k = 0 .. p/2, with c_j
    zero for j >= K; the c_{p-k} term is present only for K > p/2.  Z is
    written in place: the amplitudes, their negated mirror and zeros only
    where neither reaches.
    """
    k, h = coeffs.shape[-1], p // 2
    z = np.empty(coeffs.shape[:-1] + (h + 1,), dtype=complex)
    z.real[..., :k] = coeffs[..., : h + 1]
    z.real[..., k:] = 0.0
    mirror = p - k + 1  # the first imaginary part the mirror writes (none for K <= p/2)
    z.imag[..., :mirror] = 0.0
    np.negative(coeffs[..., h:k][..., ::-1], out=z.imag[..., mirror:])
    z *= _twiddles(p)[0]
    return np.fft.irfft(z, n=p)


def _permuted_forward(vals: np.ndarray, k: int) -> np.ndarray:
    """The first k <= p amplitudes of the values ``vals`` at p nodes in permuted order.

    With T = (2/p) W rfft(vals) (1/p at mode 0), amplitude j is Re T_j for
    j <= p/2 and -Im T_{p-j} above.
    """
    p = vals.shape[-1]
    h = p // 2
    t = np.fft.rfft(vals)
    t *= _twiddles(p)[1]
    out = np.empty(vals.shape[:-1] + (k,))
    out[..., : h + 1] = t.real[..., :k]
    if k > h + 1:
        np.negative(t.imag[..., p - k + 1 : h][..., ::-1], out=out[..., h + 1 :])
    return out


def _forward(values: np.ndarray) -> np.ndarray:
    # node values in natural order -> all N amplitudes
    permuted = np.concatenate([values[..., ::2], values[..., ::-2]], axis=-1)
    return _permuted_forward(permuted, values.shape[-1])


def _inverse(coeffs: np.ndarray) -> np.ndarray:
    # all N amplitudes -> node values in natural order
    n = coeffs.shape[-1]
    permuted = _permuted_inverse(coeffs, n)
    values = np.empty_like(permuted)
    values[..., ::2] = permuted[..., : n // 2]
    values[..., ::-2] = permuted[..., n // 2 :]
    return values


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
        """The field of the N node values, by the exact forward transform."""
        arr = np.asarray(values, dtype=float)
        if arr.shape != (grid.N,):
            raise ShapeError(f"expected {grid.N} node values, got shape {arr.shape}")
        return cls(grid, _forward(arr))

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


@lru_cache(maxsize=None)
def _sobolev_weights(grid: Grid) -> tuple:
    """The weight rows of ``_sobolev_squares``: w (L at mode 0, L/2 above),
    and w mu_k and w mu_k^2 over the modes k >= 1."""
    w = np.full(grid.N, grid.L / 2.0)
    w[0] = grid.L
    rows = (w, w[1:] * grid.mu[1:], w[1:] * grid.mu[1:] ** 2)
    # cached and shared by every caller: read-only
    for row in rows:
        row.flags.writeable = False
    return rows


def _sobolev_squares(grid: Grid, coeffs: np.ndarray, order: int) -> list:
    """Squared L2, .., H^order norms of amplitude arrays along the last axis.

    ``coeffs`` may hold only the first n <= N amplitudes, the rest zero;
    the sums then run over those n.
    """
    c2 = coeffs**2
    n = c2.shape[-1]
    w, w_mu, w_mu2 = _sobolev_weights(grid)
    total = np.sum(w[:n] * c2, axis=-1)
    out = [total]
    if order >= 1:
        total = total + np.sum(w_mu[: n - 1] * c2[..., 1:], axis=-1)
        out.append(total)
    if order == 2:
        total = total + np.sum(w_mu2[: n - 1] * c2[..., 1:], axis=-1)
        out.append(total)
    return out


@lru_cache(maxsize=None)
def _padded_matrices(n: int, k: int) -> tuple:
    """The dealiased transform pair of an N = n grid on its first k modes.

    ``inverse`` (W, 3N/2) maps the first W amplitudes to the padded node
    values (the halving of DCT-III's k >= 1 inputs and the zero padding
    folded in); ``forward`` (3N/2, W) maps node values back to the first W
    amplitudes (DCT-II's 1/n scaling, the halving of mode 0 and the
    truncation folded in).  W is k rounded up to a multiple of 4, at most
    n; both matrices are C-contiguous (see ``_dealiased``).
    """
    p = (3 * n) // 2
    if k < n:
        inverse, forward = _padded_matrices(n, n)
        width = min(n, -(-k // 4) * 4)
        inverse, forward = inverse[:width], np.ascontiguousarray(forward[:, :width])
    else:
        # k (2j + 1) reduced mod 4p first, so that every angle lies in
        # [0, 2 pi) and the cosines of large k j keep full precision
        phase = np.outer(np.arange(n), 2 * np.arange(p) + 1) % (4 * p)
        inverse = np.cos(phase * (np.pi / (2 * p)))
        forward = np.ascontiguousarray(inverse.T * (2.0 / p))
        forward[:, 0] *= 0.5
    # cached and shared by every caller: read-only
    inverse.flags.writeable = forward.flags.writeable = False
    return inverse, forward


def _rowwise(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    # one (1, K) @ (K, M) product per row, the product that a band call and
    # the N-wide one round alike
    return (a[..., None, :] @ m)[..., 0, :]


def _dealiased(grid: Grid, coeffs: np.ndarray, node_map, *, stacked=False) -> np.ndarray:
    """Amplitudes of a pointwise map of fields given by their amplitudes.

    ``coeffs`` (..., K) holds the first K <= N amplitudes (the rest zero) and
    is evaluated on the 3N/2 padded nodes, ``node_map`` takes those node
    values and returns the mapped ones (it may overwrite its argument and
    return it), and the result is transformed back and truncated to the same
    K modes.  Exact for quadratic maps.  By default, band in, band out: for
    every K the result equals the first K amplitudes of the N-wide call bit
    for bit, and each row equals its single-row call bit for bit.

    Up to N = _MATRIX_MAX_N the transforms are products with the band pair
    ``_padded_matrices(N, K)``: on these grids a transform call costs more
    in dispatch than the product costs in arithmetic.  Two properties of
    OpenBLAS (0.3.31, AVX-512 kernels) decide which product a caller takes.
    A lone row goes through gemv, which rounds differently from gemm.  And
    under gemm an amplitude's bits depend on its column's place in an
    8-wide tile, so band widths of 1-4 mod 8 round differently from the
    N-wide call.  So the default takes the products one row at a time
    (``_rowwise``).  ``stacked=True`` takes each as one gemm over all rows,
    2.5x faster on a (2, 170, 20) block at N = 64; a lone row goes through
    it beside a zero partner row that the node map does not see.  A row's
    bits then do not depend on the rows stacked with it, but band in, band
    out does not hold.  The Lyapunov-Perron sources
    (``galerkin_manifold._sources``, K = 20) take the stacked product, and
    the time loop takes it itself, into its workspace
    (``integrator._Band``); widening the sources' band to 24 to make it
    bit-safe under gemm made ``manifold`` 8-10 % slower.

    The band pair is cached per (N, K) as C-contiguous copies, whose width
    is K rounded up to a multiple of 4: row by row, zero-filled widths that
    are multiples of 4 kept the N-wide call's bits for every K checked
    (N <= 128), and other widths did not.  Larger grids call the real FFT
    pair, on which ``stacked`` changes nothing.  There ``node_map`` sees the
    padded nodes in the permuted order of ``_permuted_inverse``, so it must
    be pointwise: its value at a node may depend only on the input values
    at that node (across the leading axes).
    """
    k = coeffs.shape[-1]
    if grid.N > _MATRIX_MAX_N:
        return _permuted_forward(node_map(_permuted_inverse(coeffs, grid.padded_size)), k)
    inverse, forward = _padded_matrices(grid.N, k)
    width = inverse.shape[0]
    if stacked and coeffs.size == k:
        # a lone row would go to gemv: it goes through gemm beside a zero
        # partner row, which the node map does not see
        pair = np.zeros((2, width))
        pair[1, :k] = coeffs.reshape(k)
        nodes = pair @ inverse
        nodes[1] = node_map(nodes[1:].reshape(coeffs.shape[:-1] + (-1,)))
        return (nodes @ forward)[1, :k].reshape(coeffs.shape)
    product = np.matmul if stacked else _rowwise
    if width > k:
        padded = np.zeros(coeffs.shape[:-1] + (width,))
        padded[..., :k] = coeffs
        coeffs = padded
    return product(node_map(product(coeffs, inverse)), forward)[..., :k]


def nonlinear_eval(fields, F) -> SpectralField:
    """Dealiased pointwise evaluation F(w_1, .., w_m) -> SpectralField.

    Zero-pads to 3N/2 nodes, applies F to the node values, transforms back
    and truncates.  Exact for the quadratic nonlinearities of the model.
    F must be pointwise, since it may see the nodes in a permuted order
    (see ``_dealiased``).
    """
    fields = list(fields)
    grid = _require_same_grid(*fields)

    def node_map(vals):
        result = np.asarray(F(*vals), dtype=float)
        if result.shape != vals[0].shape:
            raise ShapeError("pointwise map must preserve the node-value shape")
        return result

    return SpectralField(grid, _dealiased(grid, np.stack([f.coeffs for f in fields]), node_map))
