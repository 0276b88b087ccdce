"""Reference computations that tests compare the library's closed forms with."""

import math

import numpy as np


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
