"""Finite-state Markov specialisation: generators, stationary distributions,
reversibility, the logarithmic mean, and the entropic Onsager structure.

Convention (fixed throughout): generators are TRANSPOSED.  Entry (i, j) is
the jump rate from state j to state i for i != j, columns sum to zero, and
probability column vectors evolve by ``dx/dt = generator @ x``.  Beware the
transpose trap when importing rate matrices from row-convention code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ColumnSumError,
    DegenerateKernelError,
    NegativeRateError,
    NonPositiveInputError,
    NonPositiveKernelError,
    NonPositiveStateError,
    NotReversibleError,
)
from .spectral import (DEFAULT_TOL, _is_symmetric, _symmetric_part, _unit_scale,
                       as_square_matrix, as_vector)
from .synthesis import (
    CanonicalGradientSystem,
    FlowResidualReport,
    GeneralisedSystemProbe,
)

#: Shortest ratio gap below which the logarithmic mean switches to its series.
_LOG_MEAN_BRANCH = 1e-8

#: Doubles per array in one block of samples of ``verify_entropic_flow`` (128 KiB).
_BLOCK_DOUBLES = 2 ** 14


@dataclass(frozen=True)
class GeneratorMatrix:
    """Transposed generator of a continuous-time chain.

    Use :func:`validate_generator` to construct one with the sign and
    column-sum invariants checked; direct construction only validates shape.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_square_matrix(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class EntropicStructure:
    """Stationary distribution and edge conductances of a reversible chain.

    ``weights[i, j] = generator[i, j] * stationary[j]``; detailed balance
    makes this matrix symmetric, which is required here (at ``DEFAULT_TOL``,
    see ``spectral._is_symmetric``).
    """

    stationary: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pi = as_vector(self.stationary)
        w = as_square_matrix(self.weights)
        if w.shape[0] != pi.size:
            raise ValueError("weights dimension does not match the distribution")
        if np.min(pi) <= 0.0:
            raise ValueError("stationary distribution must be strictly positive")
        if abs(pi.sum() - 1.0) > 1e-9:
            raise ValueError("stationary distribution must sum to 1")
        if not _is_symmetric(w, DEFAULT_TOL):
            raise ValueError("weights must be symmetric (detailed balance)")
        object.__setattr__(self, "stationary", pi)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.stationary.size

    @classmethod
    def from_generator(cls, gen: GeneratorMatrix,
                       tol: float = DEFAULT_TOL) -> "EntropicStructure":
        """Build the structure of a reversible chain; raises otherwise."""
        pi = stationary_distribution(gen, tol)
        if not is_reversible(gen, pi, tol):
            raise NotReversibleError(
                "chain is not reversible; no entropic structure exists")
        return cls(pi, _symmetric_part(gen.matrix * pi))


def validate_generator(a, tol: float = DEFAULT_TOL) -> GeneratorMatrix:
    """Check the transposed-generator invariants and wrap the matrix.

    Off-diagonal entries must be non-negative and every column must sum to
    zero (both at ``tol`` scaled by the largest entry magnitude, taken on
    the copy of ``spectral._unit_scale``), which is what makes the flow
    preserve non-negativity and total probability.
    """
    a = as_square_matrix(a)
    unit, e = _unit_scale(a)
    scale = float(np.max(np.abs(unit)))
    sums = unit.sum(axis=0)
    off = np.where(np.eye(a.shape[0], dtype=bool), 0.0, unit)
    if np.min(off) < -tol * scale:
        i, j = np.unravel_index(np.argmin(off), off.shape)
        raise NegativeRateError(f"negative jump rate {a[i, j]:g} at ({i}, {j})")
    if np.max(np.abs(sums)) > tol * scale:
        j = int(np.argmax(np.abs(sums)))
        raise ColumnSumError(f"column {j} sums to {np.ldexp(sums[j], e):g}, expected 0")
    return GeneratorMatrix(a)


def stationary_distribution(gen: GeneratorMatrix,
                            tol: float = DEFAULT_TOL) -> np.ndarray:
    """Strictly positive kernel vector of the generator, normalised to sum 1.

    Raises :class:`DegenerateKernelError` when the kernel is not
    one-dimensional at tolerance (reducible chain) and
    :class:`NonPositiveKernelError` when the kernel vector has mixed signs
    or numerically vanishing entries.
    """
    _, s, v_rows = np.linalg.svd(gen.matrix)
    kernel_dim = int(np.sum(s <= tol * s[0]))
    if kernel_dim != 1:
        raise DegenerateKernelError(
            f"kernel dimension {kernel_dim}, expected 1 (chain reducible?)")
    vec = v_rows[-1]
    vec = vec * np.sign(vec[np.argmax(np.abs(vec))])
    if np.min(vec) <= tol * np.max(vec):
        raise NonPositiveKernelError("kernel vector is not strictly positive")
    return vec / vec.sum()


def is_reversible(gen: GeneratorMatrix, stationary,
                  tol: float = DEFAULT_TOL) -> bool:
    """Detailed balance in the transposed convention.

    True iff the flux matrix ``F[i, j] = a[i, j] pi[j]`` passes
    ``spectral._is_symmetric``: ``|F - F.T| <= tol |F|`` in the Frobenius
    norm of its unit-scaled copy.
    """
    pi = as_vector(stationary, gen.dim)
    return _is_symmetric(gen.matrix * pi, tol)


def log_mean(a, b):
    """Logarithmic mean ``(a - b) / (log a - log b)``, extended by ``a`` on the diagonal.

    Accepts scalars or broadcastable arrays of strictly positive numbers.
    Evaluated as ``|a - b| / log1p(|a - b| / min(a, b))``, exactly symmetric in
    ``a, b`` (the gap is ``log max - log min`` where that ratio overflows); only
    entries whose log gap is below 1e-8, where that cancels, take the series
    ``m (1 - u^2 / 3)``, ``m = (a + b)/2`` and ``u = (a - b)/(a + b)``.
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if (a_arr <= 0.0).any() or (b_arr <= 0.0).any():
        raise NonPositiveInputError("logarithmic mean needs positive arguments")
    small = np.minimum(a_arr, b_arr)
    spread = np.abs(a_arr - b_arr)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gap = np.asarray(np.log1p(spread / small))
        # a ratio beyond the double range: there spread is max(a, b) exactly
        wide = np.flatnonzero(np.isinf(gap))
        gap.flat[wide] = np.log(spread.flat[wide]) - np.log(small.flat[wide])
        out = np.asarray(spread / gap)
    near = np.flatnonzero(gap < _LOG_MEAN_BRANCH)
    # a - b is exact for near-equal pairs (Sterbenz), so low + diff is max(a, b)
    low, diff = small.flat[near], spread.flat[near]
    total = low + (low + diff)
    out.flat[near] = 0.5 * total * (1.0 - (diff / total) ** 2 / 3.0)
    if np.isscalar(a) and np.isscalar(b):
        return float(out)
    return out


def _laplacian(conductance: np.ndarray) -> np.ndarray:
    """Graph Laplacian ``diag(c 1) - c`` of ``c = conductance``, diagonal zeroed in place."""
    np.fill_diagonal(conductance, 0.0)
    return np.diag(conductance.sum(axis=1)) - conductance


def entropic_onsager(structure: EntropicStructure, x) -> np.ndarray:
    """State-dependent mobility of the entropy-driven chain.

    The weighted graph Laplacian with conductance
    ``weights[i, j] * log_mean(x[i]/pi[i], x[j]/pi[j])`` on each edge.  The
    result is symmetric positive semi-definite and annihilates constant
    vectors; on connected weight graphs its kernel is exactly the constants.
    """
    x = as_vector(x, structure.dim)
    if np.min(x) <= 0.0:
        raise NonPositiveStateError("state must be strictly positive")
    ratio = x / structure.stationary
    return _laplacian(structure.weights * log_mean(ratio[:, None], ratio[None, :]))


def relative_entropy(x, stationary):
    """Relative entropy ``sum x_i log(x_i / pi_i)`` and its gradient.

    Returns ``(value, gradient)`` with ``gradient[i] = log(x_i/pi_i) + 1``.
    The constant shift in the gradient is annihilated by the entropic
    mobility, so it never enters the flow.
    """
    x = as_vector(x)
    pi = as_vector(stationary, x.size)
    if np.min(x) <= 0.0 or np.min(pi) <= 0.0:
        raise NonPositiveInputError("entropy needs strictly positive vectors")
    ratio = x / pi
    return float(np.sum(x * np.log(ratio))), np.log(ratio) + 1.0


def entropic_probe(structure: EntropicStructure) -> GeneralisedSystemProbe:
    """Probe of the entropy-driven system, for linearisation at stationarity."""
    pi = structure.stationary

    def energy_grad(x):
        return relative_entropy(x, pi)[1]

    def dissipation_grad(x, force):
        return entropic_onsager(structure, x) @ np.asarray(force, dtype=float)

    return GeneralisedSystemProbe(pi, energy_grad, dissipation_grad)


def verify_entropic_flow(gen: GeneratorMatrix, structure: EntropicStructure,
                         samples: int = 1000, seed: int = 0,
                         tol: float = DEFAULT_TOL) -> FlowResidualReport:
    """Sampled check of ``generator @ x = -mobility(x) @ entropy_grad(x)``.

    Requires reversibility (the entropic structure only matches the flow of
    reversible chains); raises :class:`NotReversibleError` otherwise.  As
    ``log_mean(r_i, r_j) (log r_i - log r_j) = r_i - r_j`` with ``r = x / pi``,
    the defect is ``E x`` for the fixed ``E = A + L(W) diag(pi)^-1``, where
    ``L(W)`` is the graph Laplacian of the weights.  At interior probability
    vectors ``x`` (coordinates >= ``min(1e-3, 1/(2n))``) the report holds the
    worst ``|E x| / max(|A x|, 1e-6 |A|_F)`` (0 for a zero defect) and its point.
    ``A`` and ``W`` are read on the ``spectral._unit_scale`` copy, so the
    residual is the same for ``2**k A``.  Samples are drawn and checked in blocks
    of ``_BLOCK_DOUBLES // n``, so memory does not grow with ``samples``.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if not is_reversible(gen, structure.stationary, tol):
        raise NotReversibleError("chain fails detailed balance")
    rng = np.random.default_rng(seed)
    dim = gen.dim
    unit, e = _unit_scale(gen.matrix)
    defect_matrix = unit + _laplacian(np.ldexp(structure.weights, -e)) / structure.stationary
    velocity_floor = 1e-6 * np.linalg.norm(unit)
    interior = min(1e-3, 0.5 / dim)  # so that dim * interior <= 1/2
    block = max(1, _BLOCK_DOUBLES // dim)  # samples per block
    worst, worst_point = 0.0, None
    for first in range(0, samples, block):
        # Dirichlet draws are chunk-consistent: the blocks equal one draw of all samples
        x = rng.dirichlet(np.ones(dim), size=min(block, samples - first))
        x = x * (1.0 - dim * interior) + interior
        defect = np.linalg.norm(x @ defect_matrix.T, axis=1)
        speed = np.maximum(np.linalg.norm(x @ unit.T, axis=1), velocity_floor)
        residuals = np.divide(defect, speed, out=np.zeros(len(x)), where=defect > 0.0)
        k = int(np.argmax(residuals))
        if worst_point is None or residuals[k] > worst:
            worst, worst_point = float(residuals[k]), x[k]
    return FlowResidualReport(worst, samples, worst_point)


def reversible_three_state() -> GeneratorMatrix:
    """Symmetric three-state chain with uniform stationary distribution.

    The flow of this generator is driven by the relative entropy through
    the logarithmic-mean mobility; see :func:`entropic_onsager`.
    """
    return GeneratorMatrix(np.array([[-2.0, 1.0, 1.0],
                                     [1.0, -2.0, 1.0],
                                     [1.0, 1.0, -2.0]]))


def nonreversible_three_state() -> GeneratorMatrix:
    """Three-state chain that fails detailed balance yet is real diagonalisable.

    Its spectrum is {0, -3, -6}; a constant-mobility gradient system for it
    is returned by :func:`nonreversible_three_state_system`.
    """
    return GeneratorMatrix(np.array([[-2.0, 0.0, 2.0],
                                     [1.0, -3.0, 2.0],
                                     [1.0, 3.0, -4.0]]))


def nonreversible_three_state_system() -> CanonicalGradientSystem:
    """A canonical gradient system whose flow is the non-reversible chain.

    The pair satisfies ``generator = -onsager @ hessian`` exactly; it is one
    admissible choice among many, since such factorisations are never
    unique.
    """
    onsager = np.array([[3.0, 1.5, -1.5],
                        [1.5, 2.25, -0.75],
                        [-1.5, -0.75, 5.25]])
    hessian = np.array([[4.0, -4.0, 0.0],
                        [-4.0, 6.0, -2.0],
                        [0.0, -2.0, 2.0]]) / 3.0
    return CanonicalGradientSystem(onsager, hessian, np.zeros(3))
