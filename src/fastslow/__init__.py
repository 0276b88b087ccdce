"""Pseudospectral laboratory for fast-slow reaction-diffusion systems.

Simulates the fast-reaction system and its singular limit on an interval
with Neumann data, measures the O(eps + eps_in + delta) convergence rates,
computes slow manifolds exactly for the linear reversible reaction and by
Lyapunov-Perron iteration on Galerkin truncations, and validates the
spectral-gap and parameter assumptions numerically.
"""

from .errors import (
    ConfigurationError,
    ContractionError,
    DivergenceError,
    DomainError,
    FastSlowError,
    HorizonError,
    ShapeError,
    SplittingError,
)
from .galerkin_manifold import (
    AttractionSample,
    GapReport,
    ManifoldGraph,
    ManifoldPoint,
    ResolventReport,
    SplittingParams,
    attraction_projection,
    lyapunov_perron_fixed_point,
    lyapunov_perron_sweep,
    resolvent_bound_check,
    splitting_parameters,
    validate_assumptions,
)
from .integrator import (
    FastSlowState,
    ModePropagator,
    Trajectory,
    linear_propagator,
    simulate,
)
from .linear_manifold import (
    ModeInvarianceReport,
    ModeSpectrum,
    closed_form_solution,
    invariance_and_distance,
    mode_spectrum,
)
from .models import ModelParams, ReactionEval, eval_reaction, lipschitz_estimates
from .rates import (
    ConvergenceReport,
    ConvergenceRun,
    ErrorNorms,
    convergence_study,
    fit_order,
    trajectory_error_norms,
)
from .reduction import (
    ConstantsReport,
    InitialLayerReport,
    critical_map_u_of_v,
    initial_layer,
    sharp_embedding_constant_numeric,
    solve_limit_system,
    theoretical_constants,
)
from .spectral_core import (
    Grid,
    SpectralField,
    build_grid,
    nonlinear_eval,
    sobolev_norm,
)

__version__ = "0.1.0"
