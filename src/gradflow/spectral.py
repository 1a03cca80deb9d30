"""Dense spectral kernel: real-diagonalisability tests, symmetric square
roots, SPD checks, and operator norms.

Everything operates on real, dense, square numpy arrays.  A matrix ``a``
counts as real diagonalisable when ``a = inv(t) @ np.diag(w) @ t`` for an
invertible ``t`` and a real vector ``w``; the columns of ``inv(t)`` are
then unit eigenvectors of ``a``.  All tolerances are relative to the
Frobenius norm of the input unless stated otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FlowOverflowError, NotDiagonalisableError, NotSPDError

#: Default relative tolerance: double precision with headroom for d up to ~200.
DEFAULT_TOL = 1e-9

#: Largest exponent argument before exp overflows in double precision (~709).
EXP_GUARD = 700.0


def guarded_exp(exponents) -> np.ndarray:
    """``exp(exponents)``; raises :class:`FlowOverflowError` past ``EXP_GUARD``."""
    if np.max(exponents) > EXP_GUARD:
        raise FlowOverflowError(
            f"t * eigenvalue = {np.max(exponents):.3g} exceeds the exp range")
    return np.exp(exponents)


def as_square_matrix(a) -> np.ndarray:
    """Validate ``a`` as a finite, square float matrix and return it."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate ``x`` as a finite float vector, optionally of length ``dim``."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected a vector of length {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


class FailureKind(enum.Enum):
    """Why a matrix failed (or passed) the real-diagonalisability test."""

    COMPLEX_SPECTRUM = "ComplexSpectrum"
    DEFECTIVE = "Defective"
    NONE = "None"


@dataclass(frozen=True)
class SpectralReport:
    """Diagnostic summary of one diagonalisability test.

    ``condition`` is the conditioning of the eigenvector basis and is only
    set when the matrix is real diagonalisable.
    """

    eigenvalues: np.ndarray
    real_diagonalisable: bool
    failure_kind: FailureKind
    condition: float | None = None


@dataclass(frozen=True)
class Diagonalisation:
    """Certified factorisation ``a = inv(transform) @ diag(eigenvalues) @ transform``.

    The one record of a factorised system: the transport metric, the
    synthesized system, the convexity constants and the exact propagator
    all derive from it.  ``residual`` is the Frobenius defect of that
    identity measured at construction time.  The SVD that validates
    ``transform`` also gives the read-only operator norms ``transform_norm``
    and ``inverse_norm`` (of ``inv(transform)``).  ``eigenvectors =
    inv(transform)``, whose columns are unit eigenvectors, is computed on
    first use and kept.
    """

    transform: np.ndarray
    eigenvalues: np.ndarray
    residual: float = 0.0
    transform_norm: float = field(init=False, repr=False, compare=False)
    inverse_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = as_square_matrix(self.transform)
        w = as_vector(self.eigenvalues, t.shape[0])
        singular = np.linalg.svd(t, compute_uv=False)
        if singular[-1] <= 0.0:
            raise ValueError("transform must be invertible")
        if self.residual < 0.0:
            raise ValueError("residual must be non-negative")
        object.__setattr__(self, "transform", t)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "transform_norm", float(singular[0]))
        with np.errstate(over="ignore"):
            object.__setattr__(self, "inverse_norm", float(1.0 / singular[-1]))

    @property
    def dim(self) -> int:
        return self.transform.shape[0]

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """``inv(transform)``, computed on first use and kept."""
        return np.linalg.inv(self.transform)

    def reconstruct(self) -> np.ndarray:
        """Return ``inv(transform) @ diag(eigenvalues) @ transform``."""
        return (self.eigenvectors * self.eigenvalues) @ self.transform


def canonical_eigenbasis(values: np.ndarray, vectors: np.ndarray):
    """Normalise an eigenbasis to the library's deterministic convention.

    Columns of ``vectors`` are scaled to unit Euclidean norm with their
    first nonzero component positive; columns are then ordered by ascending
    eigenvalue, ties broken by lexicographic comparison of the columns.
    """
    vectors = np.array(vectors, dtype=float)
    values = np.asarray(values, dtype=float)
    norms = np.linalg.norm(vectors, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("eigenbasis contains a zero column")
    vectors /= norms
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        nonzero = np.nonzero(np.abs(col) > 1e-12)[0]
        if nonzero.size and col[nonzero[0]] < 0.0:
            vectors[:, j] = -col
    order = sorted(range(values.size), key=lambda j: (values[j], tuple(vectors[:, j])))
    return values[order], vectors[:, order]


def _realify_conjugate_pairs(values: np.ndarray, vectors: np.ndarray):
    # Imaginary parts are already certified negligible; conjugate eigenpairs
    # are replaced by the real and imaginary parts of one member, which span
    # the same invariant subspace.
    out = vectors.real.copy()
    used = np.zeros(values.size, dtype=bool)
    for j in range(values.size):
        if used[j] or values[j].imag == 0.0:
            continue
        partners = [k for k in range(j + 1, values.size)
                    if not used[k] and values[k].imag != 0.0]
        if not partners:
            continue
        k = min(partners, key=lambda k: abs(values[k] - np.conj(values[j])))
        out[:, j] = vectors[:, j].real
        out[:, k] = vectors[:, j].imag
        used[j] = used[k] = True
    return values.real.copy(), out


def _decompose(a: np.ndarray, tol: float):
    """The report, and ``(transform, eigenvalues, residual)`` or ``None``."""
    a = as_square_matrix(a)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    dim = a.shape[0]
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        report = SpectralReport(np.zeros(dim, dtype=complex), True, FailureKind.NONE, 1.0)
        return report, (np.eye(dim), np.zeros(dim), 0.0)

    if np.linalg.norm(a - a.T) <= tol * scale:
        # Symmetric input: take the orthogonal eigenbasis so the transform
        # conditioning is 1 up to rounding.
        values, vectors = np.linalg.eigh((a + a.T) / 2.0)
        spectrum = values.astype(complex)
    else:
        spectrum, vectors = np.linalg.eig(a)
        if np.max(np.abs(spectrum.imag)) > tol * scale:
            return SpectralReport(np.sort_complex(spectrum), False,
                                  FailureKind.COMPLEX_SPECTRUM), None
        if np.iscomplexobj(vectors):
            values, vectors = _realify_conjugate_pairs(spectrum, vectors)
        else:
            values = spectrum.real.copy()

    values, vectors = canonical_eigenbasis(values, vectors)
    spectrum_sorted = np.sort_complex(np.asarray(spectrum))
    singular = np.linalg.svd(vectors, compute_uv=False)
    if singular[-1] <= tol * singular[0]:
        return SpectralReport(spectrum_sorted, False, FailureKind.DEFECTIVE), None

    transform = np.linalg.inv(vectors)
    residual = float(np.linalg.norm(a - (vectors * values) @ transform))
    if residual > tol * scale:
        # Decomposition exists numerically but cannot be certified at tol.
        return SpectralReport(spectrum_sorted, False, FailureKind.DEFECTIVE), None
    condition = float(singular[0] / singular[-1])
    report = SpectralReport(values.astype(complex), True, FailureKind.NONE, condition)
    return report, (transform, values, residual)


def inspect_spectrum(a, tol: float = DEFAULT_TOL) -> SpectralReport:
    """Classify ``a``: real diagonalisable, complex spectrum, or defective."""
    report, _ = _decompose(a, tol)
    return report


def real_diagonalise(a, tol: float = DEFAULT_TOL) -> Diagonalisation:
    """Factor ``a = inv(t) @ diag(w) @ t`` with real ``w`` and invertible ``t``.

    Parameters
    ----------
    a : array_like
        Real square matrix.
    tol : float
        Relative certification tolerance.  On success the Frobenius defect
        of the factorisation is at most ``tol * norm(a)``.

    Raises
    ------
    NotDiagonalisableError
        If some eigenvalue has imaginary part above ``tol``-scale
        (ComplexSpectrum) or the eigenvector basis is numerically singular
        (Defective).  The exception carries the :class:`SpectralReport`.
    """
    report, factors = _decompose(a, tol)
    if factors is None:
        raise NotDiagonalisableError(report)
    return Diagonalisation(*factors)


def is_spd(k, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``k`` is symmetric and positive definite at tolerance ``tol``.

    Symmetry is checked relative to the Frobenius norm; definiteness
    requires the smallest eigenvalue of the symmetrized matrix to exceed
    ``tol`` times the largest eigenvalue magnitude.
    """
    k = as_square_matrix(k)
    scale = float(np.linalg.norm(k))
    if scale == 0.0:
        return False
    if np.linalg.norm(k - k.T) > tol * scale:
        return False
    eigs = np.linalg.eigvalsh((k + k.T) / 2.0)
    return bool(eigs[0] > tol * np.max(np.abs(eigs)))


def symmetric_sqrt(k, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unique symmetric positive definite square root of an SPD matrix.

    Raises :class:`NotSPDError` when ``k`` fails :func:`is_spd`.
    """
    k = as_square_matrix(k)
    if not is_spd(k, tol):
        raise NotSPDError("matrix is not symmetric positive definite")
    values, vectors = np.linalg.eigh((k + k.T) / 2.0)
    root = (vectors * np.sqrt(values)) @ vectors.T
    return (root + root.T) / 2.0


def operator_norm(m) -> float:
    """Largest singular value of ``m`` (the Euclidean operator norm)."""
    m = as_square_matrix(m)
    return float(np.linalg.svd(m, compute_uv=False)[0])
