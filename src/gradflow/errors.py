"""Exception types shared across the library."""


class GradFlowError(Exception):
    """Base class for all library-specific failures.

    ``exit_code`` is the command-line exit status the failure maps to: 5
    (numeric failure) unless a subclass declares a precondition failure (4).
    """

    exit_code = 5


class NotDiagonalisableError(GradFlowError):
    """Matrix is not real diagonalisable; carries the diagnostic report."""

    exit_code = 4

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"matrix is not real diagonalisable: {report.failure_kind.value}"
        )


class NotSPDError(GradFlowError):
    """Matrix is not symmetric positive definite."""


class FlowMismatchError(GradFlowError):
    """Supplied matrix does not generate the system's flow."""

    exit_code = 4


class AsymmetryDefectError(GradFlowError):
    """Similarity-transformed matrix failed its symmetry certificate."""


class NotCriticalError(GradFlowError):
    """Claimed equilibrium is not an equilibrium of the flow."""

    exit_code = 4


class ConvexityConstantsError(GradFlowError):
    """Convexity constants are not finite doubles."""


class FlowOverflowError(GradFlowError):
    """Requested time would overflow the exponential propagator."""


class NonFiniteStateError(GradFlowError):
    """Integration produced NaN or Inf (unstable step size)."""


class SingularStepError(GradFlowError):
    """Implicit step matrix is not positive definite (step too large)."""


class NegativeRateError(GradFlowError):
    """Generator has a negative off-diagonal jump rate."""

    exit_code = 4


class ColumnSumError(GradFlowError):
    """Generator columns do not sum to zero."""

    exit_code = 4


class DegenerateKernelError(GradFlowError):
    """Generator kernel is not one-dimensional (reducible chain)."""

    exit_code = 4


class NonPositiveKernelError(GradFlowError):
    """Kernel vector has mixed signs or vanishing entries."""


class NonPositiveInputError(GradFlowError):
    """Input must be strictly positive."""


class NonPositiveStateError(GradFlowError):
    """State vector must be strictly positive."""


class NotReversibleError(GradFlowError):
    """Chain fails detailed balance."""

    exit_code = 4
