"""Gradient-flow structure of linear evolution equations.

Decides whether ``dx/dt = A x`` (real square ``A``) is the flow of a
gradient system, constructively synthesizes a canonical gradient system
exactly when ``A`` is real diagonalisable, and certifies the induced metric
geometry: convexity moduli of the energy, geodesic convexity, and the
contraction estimate ``d(x1(t), x2(t)) <= exp(-lambda t) d(x1(0), x2(0))``.
A finite-state Markov specialisation covers generator validation and the
entropy-driven Onsager structure of reversible chains.
"""

from . import errors
from .errors import GradFlowError
from .flow import (
    DissipationReport,
    Integrator,
    Trajectory,
    dissipation_audit,
    exact_flow,
    exact_trajectory,
    minimizing_movement_flow,
    rk4_flow,
)
from .geometry import (
    ConvexityConstants,
    check_contraction,
    check_geodesic_convexity,
    check_strong_monotonicity,
    convexity_constants,
    essential_range_check,
    metric_distance,
)
from .markov import (
    EntropicStructure,
    GeneratorMatrix,
    entropic_onsager,
    entropic_probe,
    is_reversible,
    log_mean,
    nonreversible_three_state,
    nonreversible_three_state_system,
    relative_entropy,
    reversible_three_state,
    stationary_distribution,
    validate_generator,
    verify_entropic_flow,
)
from .spectral import (
    DEFAULT_TOL,
    Diagonalisation,
    FailureKind,
    SpectralReport,
    inspect_spectrum,
    is_spd,
    operator_norm,
    real_diagonalise,
    symmetric_sqrt,
)
from .synthesis import (
    CanonicalGradientSystem,
    FlowResidualReport,
    GeneralisedSystemProbe,
    linearise_generalised,
    recover_diagonalisation,
    synthesize_canonical,
    verify_flow_identity,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalGradientSystem",
    "ConvexityConstants",
    "DEFAULT_TOL",
    "Diagonalisation",
    "DissipationReport",
    "EntropicStructure",
    "FailureKind",
    "FlowResidualReport",
    "GeneralisedSystemProbe",
    "GeneratorMatrix",
    "GradFlowError",
    "Integrator",
    "SpectralReport",
    "Trajectory",
    "check_contraction",
    "check_geodesic_convexity",
    "check_strong_monotonicity",
    "convexity_constants",
    "dissipation_audit",
    "entropic_onsager",
    "entropic_probe",
    "errors",
    "essential_range_check",
    "exact_flow",
    "exact_trajectory",
    "inspect_spectrum",
    "is_reversible",
    "is_spd",
    "linearise_generalised",
    "log_mean",
    "metric_distance",
    "minimizing_movement_flow",
    "nonreversible_three_state",
    "nonreversible_three_state_system",
    "operator_norm",
    "real_diagonalise",
    "recover_diagonalisation",
    "relative_entropy",
    "reversible_three_state",
    "rk4_flow",
    "stationary_distribution",
    "symmetric_sqrt",
    "synthesize_canonical",
    "validate_generator",
    "verify_entropic_flow",
    "verify_flow_identity",
]
