"""Exception types shared across the library: the one exit-code table.

Each class carries the ``exit_code`` and ``label`` with which the command
line reports it (``gradflow: <label>: <message>``).  The three input
errors are also ``ValueError`` subclasses."""


class GradFlowError(Exception):
    """Base class for all library-specific failures; a numeric failure by default."""

    exit_code = 5
    label = "numeric failure"


class PreconditionError(GradFlowError):
    """An input fails a precondition of the requested construction."""

    exit_code = 4
    label = "precondition failed"


class InputFormatError(GradFlowError, ValueError):
    """Input file is malformed (bad JSON, missing fields, wrong types)."""

    exit_code = 2
    label = "parse error"


class OutputError(InputFormatError):
    """An output file cannot be written; exits 2 like an input error."""

    label = "output error"


class InputDimensionError(GradFlowError, ValueError):
    """Input parses but its dimensions are inconsistent."""

    exit_code = 3
    label = "dimension error"


class NotDiagonalisableError(PreconditionError):
    """Matrix is not real diagonalisable; ``report`` is the refusing
    :class:`~gradflow.spectral.SpectralReport`, whose ``diagonalisation`` is ``None``."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"matrix is not real diagonalisable: {report.failure_kind.value}"
        )


class NotSPDError(GradFlowError):
    """Matrix is not symmetric positive definite."""


class FlowMismatchError(PreconditionError):
    """Supplied matrix does not generate the system's flow."""


class AsymmetryDefectError(GradFlowError):
    """Similarity-transformed matrix failed its symmetry certificate."""


class NotCriticalError(PreconditionError):
    """Claimed equilibrium is not an equilibrium of the flow."""


class ConvexityConstantsError(GradFlowError):
    """Convexity constants are not finite doubles."""


class FlowOverflowError(GradFlowError):
    """Requested time would overflow the exponential propagator."""


class NonFiniteStateError(GradFlowError):
    """Integration produced NaN or Inf (unstable step size)."""


class SingularStepError(GradFlowError):
    """Implicit step matrix is not positive definite (step too large)."""


class NegativeRateError(PreconditionError):
    """Generator has a negative off-diagonal jump rate."""


class ColumnSumError(PreconditionError):
    """Generator columns do not sum to zero."""


class DegenerateKernelError(PreconditionError):
    """Generator kernel is not one-dimensional (reducible chain)."""


class NonPositiveKernelError(PreconditionError):
    """Kernel vector has mixed signs or vanishing entries (a transient state)."""


class NonPositiveInputError(GradFlowError):
    """Input must be strictly positive."""


class NonPositiveStateError(GradFlowError):
    """State vector must be strictly positive."""


class NotReversibleError(PreconditionError):
    """Chain fails detailed balance."""
