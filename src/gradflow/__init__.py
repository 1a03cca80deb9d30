"""Gradient-flow structure of linear evolution equations.

Decides whether ``dx/dt = A x`` (real square ``A``) is the flow of a
gradient system, constructively synthesizes a canonical gradient system
exactly when ``A`` is real diagonalisable, and certifies the induced metric
geometry: convexity moduli of the energy, geodesic convexity, and the
contraction estimate ``d(x1(t), x2(t)) <= exp(-lambda t) d(x1(0), x2(0))``.
A finite-state Markov specialisation covers generator validation and the
entropy-driven Onsager structure of reversible chains.

``import gradflow`` loads nothing else: each public name below, and each
layer module, is imported on first use (PEP 562).
"""

import os
from importlib import import_module

__version__ = "0.1.0"

# Each layer module, with the public names that live in it.
_LAYERS = {
    "errors": "GradFlowError",
    "spectral": """DEFAULT_TOL Diagonalisation FailureKind SpectralReport
        inspect_spectrum is_spd real_diagonalise symmetric_sqrt""",
    "synthesis": """CanonicalGradientSystem FlowResidualReport GeneralisedSystemProbe
        linearise_generalised recover_diagonalisation synthesize_canonical
        verify_flow_identity""",
    "geometry": """ConvexityConstants check_contraction check_geodesic_convexity
        check_strong_monotonicity convexity_constants essential_range_check
        metric_distance""",
    "flow": """DissipationReport Integrator Trajectory dissipation_audit exact_flow
        exact_trajectory minimizing_movement_flow rk4_flow""",
    "markov": """EntropicStructure GeneratorMatrix entropic_onsager entropic_probe
        is_reversible log_mean nonreversible_three_state
        nonreversible_three_state_system relative_entropy reversible_three_state
        stationary_distribution validate_generator verify_entropic_flow""",
    "serialize": "",
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names.split()}

__all__ = sorted(["errors", *_HOME])


# The variables that set the BLAS thread count, read once as numpy loads.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _one_blas_thread() -> None:
    """Set every ``_BLAS_THREADS`` variable to 1 unless the caller set one.

    The CLI process calls it before numpy loads, so its reports do not
    depend on the core count; ``import gradflow`` never does."""
    if not any(name in os.environ for name in _BLAS_THREADS):
        os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))


def _script():
    """The ``gradflow`` console script: :func:`gradflow.cli.run` with one BLAS thread."""
    _one_blas_thread()
    from .cli import run

    run()


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _LAYERS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
