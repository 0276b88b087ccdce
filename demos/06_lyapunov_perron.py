"""Slow manifolds computed as Lyapunov-Perron fixed points.

The graph over a slow coefficient vector is the t = 0 slice of a backward
trajectory fixed point.  On the linear system the result must match the
closed-form slope; on the nonlinear system we cross-check against the cheap
attraction estimate (integrate forward from the critical manifold, then
re-read fast against slow components).
"""

import numpy as np

from fastslow import (
    ModelParams,
    SpectralField,
    attraction_projection,
    lipschitz_estimates,
    lyapunov_perron_fixed_point,
    mode_spectrum,
    sobolev_norm,
    splitting_parameters,
    theoretical_constants,
    validate_assumptions,
)

# linear oracle
p = ModelParams(d=1.0, delta=0.001, eps=0.01, model_kind="linear")
split = splitting_parameters(10.0)
rep = validate_assumptions(p, split, lipschitz_estimates(p, 1.0))
v0 = np.zeros(split.k0)
v0[1] = 1.0
pt = lyapunov_perron_fixed_point(v0, p, split, n_t=2048, tol=1e-9, gap_report=rep)
slope = mode_spectrum(p, 1).slope
print(f"linear kind: LP slope {pt.u_coeffs[1]:.9f} vs closed form {slope:.9f} "
      f"(error {abs(pt.u_coeffs[1] - slope):.1e})")
print(f"  {pt.iterations} iterations, observed contraction {pt.contraction:.3f} "
      f"<= validated {rep.total:.3f} + 0.1")

# nonlinear cross-check (small competition coefficients keep the budget
# inside the gap condition; the cut-off saturates the quadratics in the
# far backward past)
base = ModelParams(d=1.0, delta=0.001**1.5, eps=0.001, kappa=1.0, a=0.05, b=0.05, c=0.05)
consts = theoretical_constants(base, M=0.25)
pn = ModelParams(d=1.0, delta=0.001**1.5, eps=0.001, kappa=0.5 * consts.kappa_bound,
                 a=0.05, b=0.05, c=0.05)
splitn = splitting_parameters(26.0)
lips = lipschitz_estimates(pn, 0.25, constants=consts)
repn = validate_assumptions(pn, splitn, lips)
v0n = np.array([0.02, 0.015, 0.0, 0.005, 0.0])
ptn = lyapunov_perron_fixed_point(v0n, pn, splitn, n_t=768, tol=1e-7,
                                  gap_report=repn, clip_bound=consts.K0)
samp = attraction_projection(v0n, pn, splitn)
du = SpectralField(ptn.grid, ptn.u_coeffs - samp.u_coeffs)
dv = SpectralField(ptn.grid, ptn.v_fast_coeffs - samp.v_fast_coeffs)
gap_h1 = sobolev_norm(du, 1) + sobolev_norm(dv, 1)
print(f"nonlinear kind: LP vs attraction estimate, H1 distance {gap_h1:.2e} "
      f"(tolerance 5 eps = {5 * pn.eps:.0e})")
print(f"  graph magnitudes: |u| up to {np.max(np.abs(ptn.u_coeffs)):.2e}, "
      f"|v_fast| up to {np.max(np.abs(ptn.v_fast_coeffs)):.2e}")
