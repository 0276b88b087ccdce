import numpy as np
import pytest

from fastslow import (
    SpectralField,
    build_grid,
    nonlinear_eval,
    sobolev_norm,
)
from fastslow.errors import ConfigurationError, ShapeError
from fastslow.spectral_core import _MATRIX_MAX_N, _dealiased, _forward, _inverse


def quadrature_coeff(fn, k, L, n=200001):
    # independent oracle: w_k = (2/L) int w cos(k pi x / L) dx  (1/L for k = 0)
    x = np.linspace(0.0, L, n)
    w = fn(x) * np.cos(k * np.pi * x / L)
    scale = (1.0 if k == 0 else 2.0) / L
    return scale * np.trapezoid(w, x)


def quadrature_norm(fn, L, order, n=200001):
    x = np.linspace(0.0, L, n)
    h = x[1] - x[0]
    total = np.trapezoid(fn(x) ** 2, x)
    w = fn(x)
    for _ in range(order):
        w = np.gradient(w, h, edge_order=2)
        total += np.trapezoid(w**2, x)
    return np.sqrt(total)


def test_build_grid_unit_length_eigenvalues():
    g = build_grid(np.pi, 8)
    assert np.allclose(g.mu, np.arange(8) ** 2)
    assert np.allclose(g.nodes, np.pi * (np.arange(8) + 0.5) / 8)


def test_build_grid_scaled_eigenvalues():
    g = build_grid(2 * np.pi, 8)
    # mu_k = (k pi / L)^2 = k^2 / 4
    assert np.allclose(g.mu, np.arange(8) ** 2 / 4.0)


@pytest.mark.parametrize("bad_n", [7, 12, 4])
def test_build_grid_rejects_bad_node_count(bad_n):
    with pytest.raises(ConfigurationError):
        build_grid(np.pi, bad_n)


def test_build_grid_rejects_bad_length():
    with pytest.raises(ConfigurationError):
        build_grid(0.0, 16)
    for bad in (np.inf, np.nan):
        with pytest.raises(ConfigurationError):
            build_grid(bad, 8)


def test_forward_transform_of_basis_mode():
    g = build_grid(np.pi, 16)
    w = SpectralField.from_function(g, lambda x: np.cos(2 * x))
    expected = np.zeros(16)
    expected[2] = 1.0
    assert np.max(np.abs(w.coeffs - expected)) < 1e-13


def test_forward_transform_of_constant():
    g = build_grid(np.pi, 16)
    w = SpectralField.from_function(g, lambda x: np.ones_like(x))
    assert abs(w.coeffs[0] - 1.0) < 1e-14
    assert np.max(np.abs(w.coeffs[1:])) < 1e-14


def test_forward_transform_cosine_squared():
    g = build_grid(np.pi, 16)
    w = SpectralField.from_function(g, lambda x: np.cos(x) ** 2)
    # oracle: quadrature of the projection integrals
    for k in range(6):
        ref = quadrature_coeff(lambda x: np.cos(x) ** 2, k, np.pi)
        assert abs(w.coeffs[k] - ref) < 1e-8
    assert abs(w.coeffs[0] - 0.5) < 1e-13
    assert abs(w.coeffs[2] - 0.5) < 1e-13


def test_transform_length_mismatch():
    g = build_grid(np.pi, 16)
    for bad in (np.zeros(8), np.zeros((2, 16)), 1.0):
        with pytest.raises(ShapeError):
            SpectralField.from_values(g, bad)


def test_round_trip_identity_random_fields():
    rng = np.random.default_rng(42)
    for _ in range(100):
        vals = rng.standard_normal(64)
        back = _inverse(_forward(vals))
        assert np.max(np.abs(back - vals)) <= 1e-12 * max(1.0, np.max(np.abs(vals)))


def exact_cosines(modes, nodes, n):
    # cos(k pi (2j + 1) / 2n) for modes k and nodes j, with k (2j + 1)
    # reduced mod 4n first, so that the cosines of large k j keep full
    # precision
    phase = np.outer(modes, 2 * nodes + 1) % (4 * n)
    return np.cos(phase * (np.pi / (2 * n)))


@pytest.mark.parametrize("N", [8, 128, 256, 4096])
def test_cosine_transform_matches_cosine_sums(N):
    # oracle: the explicit cosine sums at the nodes, and the midpoint
    # quadrature of the projection integrals, which is exact for modes < N;
    # checked at every mode and node up to N = 256, and at N = 4096 on the
    # edges of both halves of the half spectrum plus random ones
    rng = np.random.default_rng(N)
    if N <= 256:
        picked = np.arange(N)
    else:
        h = N // 2
        edges = np.r_[0:4, h - 4 : h + 5, N - 4 : N]
        picked = np.union1d(edges, rng.choice(N, 48, replace=False))
    coeffs = rng.standard_normal((2, N)) * np.exp(-4.0 * np.arange(N) / N)
    expected = coeffs @ exact_cosines(np.arange(N), picked, N)
    got = _inverse(coeffs)[:, picked]
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
    vals = rng.standard_normal((2, N))
    weights = np.where(picked == 0, 1.0 / N, 2.0 / N)
    expected = vals @ exact_cosines(picked, np.arange(N), N).T * weights
    got = _forward(vals)[:, picked]
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_sobolev_norm_constant():
    g = build_grid(np.pi, 16)
    one = SpectralField.from_function(g, lambda x: np.ones_like(x))
    assert abs(sobolev_norm(one, 0) - np.sqrt(np.pi)) < 1e-13


def test_sobolev_norm_cosine_h2():
    g = build_grid(np.pi, 16)
    w = SpectralField.from_function(g, lambda x: np.cos(x))
    # ||w||^2 = pi/2, ||w'||^2 = pi/2, ||w''||^2 = pi/2
    assert abs(sobolev_norm(w, 2) - np.sqrt(1.5 * np.pi)) < 1e-13
    ref = quadrature_norm(lambda x: np.cos(x), np.pi, 2)
    assert abs(sobolev_norm(w, 2) - ref) < 1e-5


def test_sobolev_norm_zero_field():
    g = build_grid(np.pi, 16)
    z = SpectralField.zero(g)
    for order in (0, 1, 2):
        assert sobolev_norm(z, order) == 0.0


def test_sobolev_norm_bad_order():
    g = build_grid(np.pi, 16)
    with pytest.raises(ConfigurationError):
        sobolev_norm(SpectralField.zero(g), 3)


def test_norm_monotonicity():
    g = build_grid(np.pi, 32)
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = SpectralField(g, rng.standard_normal(32))
        n0, n1, n2 = (sobolev_norm(w, j) for j in (0, 1, 2))
        assert n0 <= n1 <= n2


def test_parseval_band_limited():
    g = build_grid(np.pi, 64)
    rng = np.random.default_rng(11)
    for _ in range(25):
        c = np.zeros(64)
        band = (2 * 64) // 3
        c[:band] = rng.standard_normal(band)
        w = SpectralField(g, c)
        vals = w.values()
        quad = (g.L / g.N) * np.sum(vals**2)
        assert abs(quad - sobolev_norm(w, 0) ** 2) < 1e-11 * max(1.0, quad)


def test_nonlinear_eval_square_of_cosine():
    g = build_grid(np.pi, 16)
    w = SpectralField.from_function(g, lambda x: np.cos(x))
    sq = nonlinear_eval([w], lambda u: u * u)
    expected = np.zeros(16)
    expected[0] = 0.5
    expected[2] = 0.5
    assert np.max(np.abs(sq.coeffs - expected)) < 1e-13


def test_nonlinear_eval_identity():
    g = build_grid(np.pi, 32)
    rng = np.random.default_rng(5)
    w = SpectralField(g, rng.standard_normal(32))
    out = nonlinear_eval([w], lambda u: u)
    assert np.max(np.abs(out.coeffs - w.coeffs)) < 1e-13


def test_nonlinear_eval_vanishes_on_diagonal():
    g = build_grid(np.pi, 32)
    rng = np.random.default_rng(6)
    u = SpectralField(g, rng.standard_normal(32))
    out = nonlinear_eval([u, u], lambda a, b: 2.0 * (b - a) ** 2)
    assert np.max(np.abs(out.coeffs)) < 1e-13


def test_nonlinear_eval_grid_mismatch():
    a = SpectralField.zero(build_grid(np.pi, 16))
    b = SpectralField.zero(build_grid(np.pi, 32))
    with pytest.raises(ShapeError):
        nonlinear_eval([a, b], lambda x, y: x + y)


def test_dealiasing_exact_on_basis_modes():
    g = build_grid(np.pi, 32)
    for k in range(1, g.N // 3 + 1):
        w = SpectralField.from_function(g, lambda x, k=k: np.cos(k * x))
        sq = nonlinear_eval([w], lambda u: u * u)
        expected = np.zeros(32)
        expected[0] = 0.5
        expected[2 * k] = 0.5
        assert np.max(np.abs(sq.coeffs - expected)) <= 1e-12


BAND_MAPS = [
    lambda vals: (vals[0] - vals[1]) ** 2 + vals * vals[1],
    lambda vals: np.clip(vals, -0.5, 0.5, out=vals),
]


def assert_band_in_band_out(N, K, node_map):
    # K band amplitudes give the first K amplitudes of the N-wide call, bit for bit
    g = build_grid(np.pi, N)
    rng = np.random.default_rng(11)
    full = np.zeros((2, 5, g.N))
    full[..., :K] = rng.standard_normal((2, 5, K))
    band = full[..., :K].copy()
    out = _dealiased(g, band, node_map)
    assert out.shape == band.shape
    assert np.array_equal(out, _dealiased(g, full, node_map)[..., :K]), K


# every residue of K mod 4: a band width that is not a multiple of 4 used to
# round differently from the N-wide call
@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6, 7, 8, 20, 21, 47, 48, 49, 64])
@pytest.mark.parametrize("node_map", BAND_MAPS, ids=["quadratic", "clip"])
def test_dealiased_band_in_band_out(K, node_map):
    assert_band_in_band_out(64, K, node_map)


@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize("node_map", BAND_MAPS, ids=["quadratic", "clip"])
def test_dealiased_band_in_band_out_every_width(N, node_map):
    for K in range(1, N + 1):
        assert_band_in_band_out(N, K, node_map)


def quadratic_map(vals):
    return (vals[0] - vals[1]) ** 2 + vals * vals[1]


def band_width(N, width):
    # "3/4": K = 3N/4 modes, where the half spectrum of the 3N/2 padded nodes
    # ends; "3/4+1" and "3/4+2" reach past it, into the branch of
    # ``_permuted_inverse`` and then of ``_permuted_forward``
    return {"full": N, "band": N // 4, "3/4": 3 * N // 4,
            "3/4+1": 3 * N // 4 + 1, "3/4+2": 3 * N // 4 + 2}[width]


@pytest.mark.parametrize("N", [8, 16, 64, 128, 256, 1024])
@pytest.mark.parametrize("width", ["full", "band", "3/4", "3/4+1", "3/4+2"])
def test_dealiased_matches_padded_cosine_sums(N, width):
    # oracle: explicit cosine sums at the 3N/2 padded nodes, the quadratic
    # map there, and the midpoint quadrature of the projection integrals,
    # which is exact for the modes < 2N - 1 of the product
    g = build_grid(np.pi, N)
    K = band_width(N, width)
    rng = np.random.default_rng(N)
    coeffs = rng.standard_normal((2, 3, K)) * np.exp(-4.0 * np.arange(K) / K)
    P = g.padded_size
    x = g.L * (np.arange(P) + 0.5) / P
    basis = np.cos(np.outer(np.arange(K), x) * np.pi / g.L)
    vals = np.einsum("...k,kj->...j", coeffs, basis)
    weights = np.full(K, 2.0 / P)
    weights[0] = 1.0 / P
    expected = np.einsum("...j,kj->...k", quadratic_map(vals), basis) * weights
    out = _dealiased(g, coeffs, quadratic_map)
    assert out.shape == expected.shape
    assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("N", [8, _MATRIX_MAX_N, 2 * _MATRIX_MAX_N, 1024])
@pytest.mark.parametrize("width", ["full", "band"])
@pytest.mark.parametrize("rows", [1, 2, 3, 5])
def test_dealiased_rows_independent_of_their_stack(N, width, rows):
    # each row of a stacked call equals its single-row call bit for bit, on
    # both sides of the matrix-path threshold
    g = build_grid(np.pi, N)
    K = band_width(N, width)
    coeffs = np.random.default_rng(rows).standard_normal((rows, K))

    def node_map(vals):
        return vals * vals + vals

    out = _dealiased(g, coeffs, node_map)
    for r in range(rows):
        assert np.array_equal(out[r], _dealiased(g, coeffs[r], node_map))


@pytest.mark.parametrize("N", [8, 64, _MATRIX_MAX_N, 2 * _MATRIX_MAX_N])
@pytest.mark.parametrize("width", ["full", "band", "3/4+1"])
def test_dealiased_stacked_agrees_with_the_rowwise_call(N, width):
    # one stacked product per transform rounds differently from the row-wise
    # products on the matrix path, but only at roundoff; the real FFT path
    # is stacked along the last axis either way, so there the bits agree
    g = build_grid(np.pi, N)
    K = band_width(N, width)
    coeffs = np.random.default_rng(N + K).standard_normal((2, 170, K)) / (1.0 + np.arange(K))
    stacked = _dealiased(g, coeffs, quadratic_map, stacked=True)
    rowwise = _dealiased(g, coeffs, quadratic_map)
    assert stacked.shape == rowwise.shape == coeffs.shape
    if N > _MATRIX_MAX_N:
        assert np.array_equal(stacked, rowwise)
    else:
        assert np.max(np.abs(stacked - rowwise)) <= 1e-14 * np.max(np.abs(rowwise))


def band_remainder(coeffs, node_map):
    """The time loop's remainder of the rows ``coeffs`` (rows, N) on a band
    of all N modes (``integrator._Band``): its own gemms, with the padded
    node values and the result written into its workspace, which holds a
    zero partner row in front of an odd row count, and ``node_map``'s values
    written over the node rows.  Returns the band and a function that
    takes the remainder of new rows through the same buffers."""
    from fastslow.integrator import _Band, _System

    grid = build_grid(np.pi, coeffs.shape[-1])

    def in_place(vals):
        vals[...] = node_map(vals)

    # the remainder reads no propagator
    band = _Band(grid, [_System(coeffs, None, in_place, "rows")], [0], grid.N, [coeffs], in_place)

    def remainder(new):
        band.y[...] = new
        return band.remainder(band.y, band.ws.n0)

    return band, remainder


@pytest.mark.parametrize("N", [8, 64, _MATRIX_MAX_N])
@pytest.mark.parametrize("rows", [2, 3])
def test_dealiased_into_buffers_keeps_the_bits(N, rows):
    # the time loop takes the stacked product of the full-width matrix path
    # itself, with the padded node values and the result written into its
    # workspace: the bits are those of the allocating stacked call, and the
    # buffers are reused from call to call
    rng = np.random.default_rng(N + rows)
    coeffs = rng.standard_normal((rows, N))
    band, remainder = band_remainder(coeffs, quadratic_map)
    for _ in range(2):
        expected = _dealiased(build_grid(np.pi, N), coeffs, quadratic_map, stacked=True)
        assert remainder(coeffs) is band.ws.n0
        assert np.array_equal(band.ws.n0, expected)
        coeffs = rng.standard_normal((rows, N))


@pytest.mark.parametrize("N", [8, 16, 32, 64, _MATRIX_MAX_N])
@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("buffers", [False, True], ids=["new arrays", "buffers"])
def test_dealiased_stacked_rows_independent_of_their_stack(N, rows, buffers):
    # at the time loop's shapes (K = N), each row of a stacked call equals
    # its single-row call and the same row inside another stack, bit for
    # bit: a lone row goes through gemm too, beside a zero partner row.
    # With buffers, the time loop's own products into its workspace, an odd
    # stack sits behind a zero partner row, which the map does not see and
    # the products keep zero
    g = build_grid(np.pi, N)
    rng = np.random.default_rng(N + rows)
    coeffs = rng.standard_normal((rows, N))
    other = rng.standard_normal((rows + 2, N))
    other[1 : rows + 1] = coeffs[::-1]

    def node_map(vals):
        return vals * vals + vals

    def call(stack):
        if not buffers:
            return _dealiased(g, stack, node_map, stacked=True)
        band, remainder = band_remainder(stack, node_map)
        out = remainder(stack)
        assert not np.any(out.base[: band.ws.pad])
        return out

    out = call(coeffs)
    assert out.shape == coeffs.shape
    in_other = call(other)[1 : rows + 1][::-1]
    for r in range(rows):
        assert np.array_equal(out[r], call(coeffs[r : r + 1])[0]), r
        assert np.array_equal(out[r], in_other[r]), r
        if not buffers:
            assert np.array_equal(out[r], _dealiased(g, coeffs[r], node_map, stacked=True)), r


def test_field_rejects_nonfinite():
    g = build_grid(np.pi, 16)
    c = np.zeros(16)
    c[3] = np.nan
    with pytest.raises(ShapeError):
        SpectralField(g, c)
