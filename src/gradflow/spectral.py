"""Dense spectral kernel: real-diagonalisability tests, symmetric square
roots and SPD checks.

Everything operates on real, dense, square numpy arrays.  A matrix ``a``
counts as real diagonalisable when ``a = inv(t) @ np.diag(w) @ t`` for an
invertible ``t`` and a real vector ``w``; the columns of ``inv(t)`` are
then unit eigenvectors of ``a``.  Every relative tolerance test in the
library takes its norms (Frobenius unless stated otherwise) on the
power-of-two-normalised input of :func:`_unit_scale`: exact, safe from
overflow and underflow, and so the same for ``a`` and ``2**k a``.
Factorisations read the input as given.
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


def as_states(x, dim: int) -> np.ndarray:
    """Validate ``x`` as a finite state of dimension ``dim``, or such states in rows."""
    v = np.asarray(x, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != dim or not np.all(np.isfinite(v)):
        raise ValueError(f"states must be finite, of dimension {dim}, one per row")
    return v


class FailureKind(enum.Enum):
    """Why a matrix failed (or passed) the real-diagonalisability test."""

    COMPLEX_SPECTRUM = "ComplexSpectrum"
    DEFECTIVE = "Defective"
    NONE = "None"


@dataclass(frozen=True)
class Diagonalisation:
    """Certified factorisation ``a = inv(transform) @ diag(eigenvalues) @ transform``.

    The one record of a factorised system: the transport metric, the
    synthesized system, the convexity constants and the exact propagator
    all derive from it.  ``residual`` is its :func:`_factorisation_residual`,
    as certified or as loaded; no reader decides on it.  The SVD that validates
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
        if not 0.0 <= self.residual < np.inf:  # nan too
            raise ValueError("residual must be finite and non-negative")
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


@dataclass(frozen=True)
class SpectralReport:
    """The verdict of :func:`inspect_spectrum`, with its certificate.

    ``diagonalisation`` is the certified :class:`Diagonalisation`, or ``None``
    when the test fails; ``real_diagonalisable`` is read off it.  ``condition``
    is the conditioning of the eigenvector basis, set on success only.
    """

    eigenvalues: np.ndarray
    failure_kind: FailureKind
    condition: float | None = None
    diagonalisation: Diagonalisation | None = None

    @property
    def real_diagonalisable(self) -> bool:
        return self.diagonalisation is not None


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
    first = np.argmax(np.abs(vectors) > 1e-12, axis=0)
    vectors[:, vectors[first, np.arange(values.size)] < 0.0] *= -1.0
    order = np.lexsort(np.vstack((vectors[::-1], values)))
    return values[order], vectors[:, order]


def _realify_conjugate_pairs(values: np.ndarray, vectors: np.ndarray):
    # Imaginary parts are already certified negligible.  LAPACK lists each
    # conjugate pair adjacently, positive imaginary part first; the pair is
    # replaced by the real and imaginary parts of its first member, which
    # span the same invariant subspace.
    out = vectors.real.copy()
    first = np.nonzero(values.imag > 0.0)[0]
    out[:, first + 1] = vectors[:, first].imag
    return values.real, out


def _unit_scale(m: np.ndarray) -> tuple[np.ndarray, int]:
    """``(m * 2**-e, e)``, ``e`` the exponent of ``max|m|`` (0 for ``m = 0``): the
    exact copy whose largest entry lies in [0.5, 1)."""
    e = int(np.frexp(np.max(np.abs(m)))[1])
    return np.ldexp(m, -e), e


def _relative(defect: float, scale: float) -> float:
    """``defect / scale``; a zero ``scale`` (``a = 0``) reads 0 for a zero
    defect, else 1: the whole of the other side is defect."""
    if scale == 0.0:
        return 0.0 if defect == 0.0 else 1.0
    return float(defect / scale)


def _factorisation_residual(a: np.ndarray, diag: Diagonalisation) -> float:
    """Relative defect ``|T a - diag(w) T|_F / (|T|_2 max(|a|_F, |w|_2))`` of
    ``a = inv(T) diag(w) T`` as ``diag`` claims it: the one measure of that
    identity, forward, converse and loaded.  It needs no inverse.  A true
    factorisation has ``|w|_2 <= |a|_F`` (Schur), so the ``max`` is ``|a|_F``
    there up to rounding; on any input the measure is at most 2.  ``T``, and
    ``a`` with ``w``, are read scaled by the exponent of their largest entry,
    so ``2**k`` changes no bit."""
    t, f = _unit_scale(diag.transform)
    e = int(np.frexp(max(np.max(np.abs(a)), np.max(np.abs(diag.eigenvalues))))[1])
    unit, w = np.ldexp(a, -e), np.ldexp(diag.eigenvalues, -e)
    defect = np.linalg.norm(t @ unit - w[:, None] * t)
    scale = max(np.linalg.norm(unit), np.linalg.norm(w))
    return _relative(defect, np.ldexp(diag.transform_norm, -f) * scale)


def _symmetric_part(m: np.ndarray) -> np.ndarray:
    """``(m + m.T) / 2``, halved before the sum so it cannot overflow."""
    return m / 2.0 + m.T / 2.0


def _is_symmetric(m: np.ndarray, tol: float) -> bool:
    """``|m - m.T| <= tol |m|`` in the Frobenius norm of the unit-scaled copy."""
    u, _ = _unit_scale(m)
    return bool(np.linalg.norm(u - u.T) <= tol * np.linalg.norm(u))


def _certify_eigenbasis(a, values, vectors) -> Diagonalisation:
    """The :class:`Diagonalisation` of the eigenbasis ``(values, vectors)`` of ``a``,
    for both directions of the construction: the basis in :func:`canonical_eigenbasis`
    form and its one inverse as ``transform``, with the :func:`_factorisation_residual`
    of ``a`` as ``residual``.  It decides nothing: :func:`inspect_spectrum` does."""
    values, vectors = canonical_eigenbasis(values, vectors)
    diag = Diagonalisation(np.linalg.inv(vectors), values)
    object.__setattr__(diag, "residual", _factorisation_residual(a, diag))  # from its one SVD
    return diag


def inspect_spectrum(a, tol: float = DEFAULT_TOL) -> SpectralReport:
    """Decide whether ``a`` is real diagonalisable: the one home of the verdict.

    ``ComplexSpectrum``: some eigenvalue has imaginary part above ``tol``
    times ``|a|_F``.  ``Defective``: the eigenbasis is singular, its
    :func:`_factorisation_residual` exceeds ``tol`` (or is nan), or the
    record's one SVD of ``transform = inv(eigenbasis)`` gives
    ``condition**2 * tol >= 1``, the library's one conditioning rule: the
    synthesized Onsager operator has condition ``condition**2`` and is SPD at
    ``tol`` only below it.  Else the report carries the certified record.
    """
    a = as_square_matrix(a)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    dim = a.shape[0]
    unit, e = _unit_scale(a)
    scale = float(np.linalg.norm(unit))
    if scale == 0.0:  # every basis diagonalises 0: keep the identity
        return SpectralReport(np.zeros(dim, dtype=complex), FailureKind.NONE, 1.0,
                              Diagonalisation(np.eye(dim), np.zeros(dim)))
    if _is_symmetric(unit, tol):
        # Symmetric input: take the orthogonal eigenbasis so the transform
        # conditioning is 1 up to rounding.
        spectrum, vectors = np.linalg.eigh(_symmetric_part(a))
    else:
        spectrum, vectors = np.linalg.eig(a)
    if not np.all(np.isfinite(spectrum)):
        raise np.linalg.LinAlgError("eigenvalues exceed the double range")
    if np.ldexp(np.max(np.abs(spectrum.imag)), -e) > tol * scale:
        return SpectralReport(np.sort_complex(spectrum), FailureKind.COMPLEX_SPECTRUM)
    defective = SpectralReport(np.sort_complex(spectrum), FailureKind.DEFECTIVE)
    with np.errstate(all="ignore"):  # an overflow shows as a failed test below
        try:
            diag = _certify_eigenbasis(a, *_realify_conjugate_pairs(spectrum, vectors))
        except (np.linalg.LinAlgError, ValueError):  # a singular basis
            return defective
    condition = diag.transform_norm * diag.inverse_norm
    if not diag.residual <= tol or condition * condition * tol >= 1.0:  # nan too
        return defective
    return SpectralReport(diag.eigenvalues.astype(complex), FailureKind.NONE, condition, diag)


def real_diagonalise(a, tol: float = DEFAULT_TOL) -> Diagonalisation:
    """Factor ``a = inv(t) @ diag(w) @ t`` with real ``w`` and invertible ``t``:
    the ``diagonalisation`` of :func:`inspect_spectrum`.

    Parameters
    ----------
    a : array_like
        Real square matrix.
    tol : float
        Relative certification tolerance.  On success the relative defect
        of the factorisation, :func:`_factorisation_residual`, is at most ``tol``.

    Raises
    ------
    NotDiagonalisableError
        If :func:`inspect_spectrum` refuses ``a``; it carries that report.
    numpy.linalg.LinAlgError
        If LAPACK fails or an eigenvalue exceeds the double range.
    """
    report = inspect_spectrum(a, tol)
    if report.diagonalisation is None:
        raise NotDiagonalisableError(report)
    return report.diagonalisation


def _spd_eigh(k, tol: float):
    """``eigh`` of symmetric ``k`` if its smallest eigenvalue exceeds ``tol``
    times the largest magnitude, else ``None`` (also for asymmetric ``k``)."""
    k = as_square_matrix(k)
    if not _is_symmetric(k, tol):
        return None
    values, vectors = np.linalg.eigh(_symmetric_part(k))
    if not values[0] > tol * np.max(np.abs(values)):
        return None
    return values, vectors


def is_spd(k, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``k`` is symmetric and positive definite at tolerance ``tol``."""
    return _spd_eigh(k, tol) is not None


def symmetric_sqrt(k, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unique symmetric positive definite square root of an SPD matrix.

    Raises :class:`NotSPDError` when ``k`` fails :func:`is_spd`.
    """
    factors = _spd_eigh(k, tol)
    if factors is None:
        raise NotSPDError("matrix is not symmetric positive definite")
    values, vectors = factors
    return _symmetric_part((vectors * np.sqrt(values)) @ vectors.T)
