"""Numerical validation of the spectral-gap and parameter assumptions.

The fast/slow splitting picks k0 with k0^2 < zeta_inv < (k0+1)^2; the gap
condition then weighs the Lipschitz budgets of the nonlinearities against
the mode-splitting gap.  Note the splitting formulas as stated give
N_S - N_F = k0 - 2, not k0; ``GAP_FORMULA_NOTE`` says so.
"""

import numpy as np

from fastslow import (
    ModelParams,
    lipschitz_estimates,
    splitting_parameters,
    theoretical_constants,
    validate_assumptions,
)
from fastslow.galerkin_manifold import GAP_FORMULA_NOTE

split = splitting_parameters(26.0)
print(f"zeta_inv = 26 -> k0 = {split.k0}, N_S = {split.N_S}, N_F = {split.N_F}, "
      f"gap = {split.gap}, eta = {split.eta}")
print("note:", GAP_FORMULA_NOTE)

print("\nworked gap cases with a synthetic budget (L_f, L_phi, L_psi) = (0.5, 0, 0):")
for eps, delta in [(0.001, 0.0), (0.01, 0.0), (0.001, 0.001**1.5)]:
    p = ModelParams(d=1.0, delta=delta, eps=eps, model_kind="linear")
    rep = validate_assumptions(p, splitting_parameters(26.0), (0.5, 0.0, 0.0))
    print(f"  eps={eps:7.4g} delta={delta:9.4g}: term1={rep.term1:.4f} "
          f"term2={rep.term2:.4f} passes={rep.passes}")

print("\ncross diffusion erodes the gap condition monotonically:")
for delta in np.linspace(0.0, 0.02, 5):
    p = ModelParams(d=1.0, delta=delta, eps=0.001, model_kind="linear")
    rep = validate_assumptions(p, splitting_parameters(26.0), (0.5, 0.0, 0.0))
    print(f"  delta={delta:.3g}: total={rep.total:.3f} passes={rep.passes}")

print("\na genuine nonlinear budget from the constants chain:")
base = ModelParams(d=1.0, delta=0.001**1.5, eps=0.001, kappa=1.0, a=0.05, b=0.05, c=0.05)
consts = theoretical_constants(base, M=0.25)
p = ModelParams(d=1.0, delta=0.001**1.5, eps=0.001, kappa=0.5 * consts.kappa_bound,
                a=0.05, b=0.05, c=0.05)
lips = lipschitz_estimates(p, 0.25, constants=consts)
rep = validate_assumptions(p, splitting_parameters(26.0), lips)
print(f"  kappa = {p.kappa:.3e} (bound {consts.kappa_bound:.3e}), "
      f"L = {tuple(round(v, 4) for v in lips)}")
print(f"  term1={rep.term1:.4f} term2={rep.term2:.4f} passes={rep.passes}")
