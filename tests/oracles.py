"""Reference computations that tests compare the library's closed forms and
shortcuts with."""

import itertools
import math

import numpy as np

from fastslow.galerkin_manifold import _h2_weights


def sharp_embedding_constant_numeric(L, n_trials=2000, rng=None):
    """Numeric maximization of |w(x0)| / ||w||_H1 over cosine polynomials.

    Combines seeded random trials with the exact supremum over the truncated
    space of modes 0 .. 256 (the H1 norm of the point-evaluation functional,
    computed per x0 at 801 points from the orthogonal basis).  Converges to
    sqrt(coth(L)) as the mode count grows.
    """
    n_modes, n_x = 256, 801
    if rng is None:
        rng = np.random.default_rng(0)
    k = np.arange(n_modes + 1)
    mu = (k * np.pi / L) ** 2
    h = (L / 2) * (1.0 + mu)
    h[0] = L
    x0 = np.linspace(0.0, L, n_x)
    basis = np.cos(np.outer(k, x0) * (np.pi / L))
    riesz = np.sqrt(np.max(np.sum(basis**2 / h[:, None], axis=0)))
    best = 0.0
    for _ in range(n_trials):
        c = rng.standard_normal(n_modes + 1) / (1.0 + k)
        w = c @ basis
        norm = math.sqrt(float(np.sum(h * c**2)))
        best = max(best, float(np.max(np.abs(w))) / norm)
    return max(best, float(riesz))


def smoothing_constant_exhaustive(d, L):
    """Numeric lower bound for the heat-smoothing constant of eq-type

        || e^{t d dxx} w_x ||_p <= C e^{-lambda_1 t} t^{-1/2} || w ||_p

    maximized over 200 random fields on 48 modes, sampled at 512 points, 40
    log-spaced t in [1e-3, 1] and p in {2, inf}.  The fields are drawn from
    ``default_rng(0)``, so the bound is a function of (d, L) alone.

    The exhaustive loop: the sup-norm product runs at every t.  The
    library's ``reduction._estimate_smoothing_constant`` must return its
    value bit for bit."""
    rng = np.random.default_rng(0)
    n_fields, n_modes, fine = 200, 48, 512
    lam1 = (math.pi / L) ** 2
    k = np.arange(1, n_modes + 1)
    x = np.linspace(0.0, L, fine)
    cos_tab = np.cos(np.outer(k, x) * (np.pi / L))
    sin_tab = np.sin(np.outer(k, x) * (np.pi / L))
    coeffs = rng.standard_normal((n_fields, n_modes)) / (1.0 + k**2)
    w_l2 = np.sqrt((L / 2) * np.sum(coeffs**2, axis=1))
    w_linf = np.max(np.abs(coeffs @ cos_tab), axis=1)
    s = -coeffs * (k * np.pi / L)  # sine amplitudes of w_x
    # one buffer for the node values of every t: a fresh array of this size
    # each time can be mapped anew by the allocator, one page fault per page
    vals = np.empty((n_fields, fine))
    best = 0.0
    for t in np.logspace(-3, 0, 40):
        decay = np.exp(-d * (k * np.pi / L) ** 2 * t)
        st = s * decay
        n_l2 = np.sqrt((L / 2) * np.sum(st**2, axis=1))
        n_linf = np.max(np.abs(np.matmul(st, sin_tab, out=vals), out=vals), axis=1)
        scale = math.sqrt(t) * math.exp(lam1 * t)
        best = max(best, float(np.max(n_l2 / w_l2)) * scale)
        best = max(best, float(np.max(n_linf / w_linf)) * scale)
    return best


def lipschitz_ratio_pairwise(points, k0):
    """The graph Lipschitz ratio of ``galerkin_manifold.ManifoldGraph`` by a
    loop over the pairs of points, which the library must match bit for bit."""
    nw = _h2_weights(points[0].grid)
    ratios = []
    for a, b in itertools.combinations(points, 2):
        dv = a.v_slow - b.v_slow
        dnorm = math.sqrt(float(np.sum(nw[:k0] * dv**2)))
        if dnorm < 1e-14:
            continue
        du = math.sqrt(float(np.sum(nw * (a.u_coeffs - b.u_coeffs) ** 2)))
        dvf = math.sqrt(float(np.sum(nw * (a.v_fast_coeffs - b.v_fast_coeffs) ** 2)))
        ratios.append((du + dvf) / dnorm)
    return max(ratios, default=math.nan)


def reflected(coeffs):
    """The cosine amplitudes (..., K) of w(L - x): c_k -> (-1)^k c_k.

    The reflection x -> L - x maps the half-sample nodes onto themselves in
    reverse order; every node map and the clip are pointwise, so a solution
    built from reflected data is the reflected solution."""
    coeffs = np.asarray(coeffs, dtype=float)
    sign = np.where(np.arange(coeffs.shape[-1]) % 2 == 0, 1.0, -1.0)
    return coeffs * sign
