"""Construction and inversion of canonical gradient systems for linear flows.

A canonical gradient system drives ``dx/dt = -onsager @ hessian @ (x - eq)``
through the quadratic energy ``F(x) = <hessian (x - eq), x - eq> / 2`` with a
constant symmetric positive semi-definite Onsager operator.  Given a real
diagonalisation ``a = inv(t) @ diag(w) @ t`` the synthesized pair is

    onsager = inv(t) @ inv(t).T        hessian = -t.T @ diag(w) @ t

so that ``a = -onsager @ hessian`` holds as an operator identity.  The pair
is a function of ``(t, w)``: :func:`_canonical_residual` measures how far a
stored pair is from it, and a system file must hold it.  The converse
direction recovers a diagonalisation from any pair with
``a = -onsager @ hessian``, canonical or not, through the symmetric square
root of the Onsager operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    AsymmetryDefectError,
    FlowMismatchError,
    NotCriticalError,
    NotSPDError,
)
from .spectral import (
    DEFAULT_TOL,
    Diagonalisation,
    _certify_eigenbasis,
    _is_symmetric,
    _relative,
    _symmetric_part,
    _unit_scale,
    as_square_matrix,
    as_vector,
    symmetric_sqrt,
)


def _quadratic_form(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``<m x, x>`` for each row ``x`` of ``rows`` (``x @ m @ x``, row by row)."""
    return np.sum((rows @ m) * rows, axis=-1)


@dataclass(frozen=True)
class CanonicalGradientSystem:
    """Constant-mobility gradient system with quadratic energy.

    The Onsager operator must be symmetric positive semi-definite; a kernel
    is admitted so that linearisations of degenerate mobilities (for example
    mass-conserving Markov structures) fit the same type.  Operations that
    need invertibility check strict definiteness at their own boundary.
    """

    onsager: np.ndarray
    hessian: np.ndarray
    equilibrium: np.ndarray

    def __post_init__(self):
        k = as_square_matrix(self.onsager)
        b = as_square_matrix(self.hessian)
        eq = as_vector(self.equilibrium, k.shape[0])
        if b.shape != k.shape:
            raise ValueError("onsager and hessian dimensions disagree")
        for name, m in (("onsager operator", k), ("hessian", b)):
            if not _is_symmetric(m, DEFAULT_TOL):
                raise ValueError(f"{name} must be symmetric")
        eigs = np.linalg.eigvalsh(_symmetric_part(k))
        if eigs[0] < -DEFAULT_TOL * np.max(np.abs(eigs)):
            raise ValueError("onsager operator must be positive semi-definite")
        object.__setattr__(self, "onsager", k)
        object.__setattr__(self, "hessian", b)
        object.__setattr__(self, "equilibrium", eq)

    @property
    def dim(self) -> int:
        return self.onsager.shape[0]

    def energy(self, x) -> float | np.ndarray:
        """Quadratic energy ``<hessian (x - eq), x - eq> / 2``; accepts batches of rows."""
        delta = np.asarray(x, dtype=float) - self.equilibrium
        energy = _quadratic_form(self.hessian, delta) / 2.0
        return float(energy) if delta.ndim == 1 else energy

    def energy_grad(self, x) -> np.ndarray:
        """Gradient ``hessian @ (x - eq)``."""
        delta = np.asarray(x, dtype=float) - self.equilibrium
        return delta @ self.hessian.T

    def flow_matrix(self) -> np.ndarray:
        """The generator of the flow, ``-onsager @ hessian``."""
        return -self.onsager @ self.hessian


@dataclass(frozen=True)
class GeneralisedSystemProbe:
    """Pointwise access to a generalised gradient system near an equilibrium.

    ``energy_grad`` maps a state to the energy gradient; ``dissipation_grad``
    maps (state, force) to the velocity produced by the dissipation
    potential.  The dimension is the equilibrium's size, which must be
    positive.  Construction verifies that zero force produces a velocity
    below ``1e-8 s`` at the equilibrium and at it shifted by ``0.01 s``, with
    ``s = max|equilibrium|`` (1 at 0).
    """

    equilibrium: np.ndarray
    energy_grad: Callable[[np.ndarray], np.ndarray]
    dissipation_grad: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        eq = as_vector(self.equilibrium)
        if eq.size == 0:
            raise ValueError("equilibrium must be non-empty")
        object.__setattr__(self, "equilibrium", eq)
        scale = float(np.max(np.abs(eq))) or 1.0  # of states and velocities near eq
        for point in (eq, eq + 0.01 * scale):
            rest = as_vector(self.dissipation_grad(point, np.zeros(eq.size)), eq.size)
            if np.linalg.norm(rest) > 1e-8 * scale:
                raise ValueError("dissipation gradient must vanish at zero force")

    @property
    def dim(self) -> int:
        return self.equilibrium.size


@dataclass(frozen=True)
class FlowResidualReport:
    """Worst-case defect of a flow identity over a set of checks."""

    max_residual: float
    num_samples: int
    worst_point: np.ndarray | None = None


def synthesize_canonical(diag: Diagonalisation) -> CanonicalGradientSystem:
    """Build the canonical gradient system of a real-diagonalisable flow.

    Returns the system with ``onsager = inv(t) inv(t).T``,
    ``hessian = -t.T diag(w) t`` and equilibrium 0, which satisfies
    ``a + onsager @ hessian = 0`` for the matrix that produced ``diag``.
    The Onsager operator has eigenvalues ``1 / sigma_i(t)**2``; for a
    ``diag`` from :func:`~gradflow.spectral.real_diagonalise` at ``tol`` it
    is SPD at ``tol``, since that function refuses ``cond(t)**2 * tol >= 1``.
    """
    inv_t = diag.eigenvectors
    onsager = _symmetric_part(inv_t @ inv_t.T)
    hessian = _symmetric_part(-(diag.transform.T * diag.eigenvalues) @ diag.transform)
    return CanonicalGradientSystem(onsager, hessian, np.zeros(diag.dim))


def _shifted_defect(x, x_bound, ex: int, y, y_bound, ey: int) -> float:
    """``|2**ex x - 2**ey y|_F / max(2**ex x_bound, 2**ey y_bound)``, with both
    sides shifted to the larger exponent so that nothing overflows."""
    top = max(ex, ey)
    x, x_bound = np.ldexp(x, ex - top), np.ldexp(x_bound, ex - top)
    y, y_bound = np.ldexp(y, ey - top), np.ldexp(y_bound, ey - top)
    return _relative(np.linalg.norm(x - y), max(x_bound, y_bound))


def _canonical_residual(diag: Diagonalisation, gs: CanonicalGradientSystem) -> float:
    """Relative defect of ``gs`` as the canonical pair of ``diag``
    (:func:`synthesize_canonical`): the largest of

    * ``|T K T.T - I|_F / max(|T|_2^2 |K|_F, |I|_F)`` (``K = inv(T) inv(T).T``),
    * ``|B + T.T diag(w) T|_F / max(|B|_F, |T|_2^2 |w|_2)``,
    * and 1 if the equilibrium is not exactly 0, which no tolerance forgives.

    Each side of each identity is bounded by its term of the ``max``, so the
    measure is at most 2, and a pair within relative ``tol`` of the canonical
    one reads about ``tol`` whatever ``cond(T)``.  ``T``, ``K``, ``B`` and
    ``w`` are read on their :func:`~gradflow.spectral._unit_scale` copies,
    so ``2**k`` changes no bit: three products, no inverse or factorisation.
    """
    (t, f), (k, g) = _unit_scale(diag.transform), _unit_scale(gs.onsager)
    (b, eb), (w, ew) = _unit_scale(gs.hessian), _unit_scale(diag.eigenvalues)
    t_norm2 = np.ldexp(diag.transform_norm, -f) ** 2
    onsager = _shifted_defect(t @ k @ t.T, t_norm2 * np.linalg.norm(k), 2 * f + g,
                              np.eye(diag.dim), np.sqrt(diag.dim), 0)
    hessian = _shifted_defect(b, np.linalg.norm(b), eb, -(t.T * w) @ t,
                              t_norm2 * np.linalg.norm(w), 2 * f + ew)
    return max(onsager, hessian, float(np.any(gs.equilibrium != 0.0)))


def recover_diagonalisation(gs: CanonicalGradientSystem, a,
                            tol: float = DEFAULT_TOL) -> Diagonalisation:
    """Recover a real diagonalisation from a canonical gradient system.

    Requires ``a = -onsager @ hessian`` within ``tol`` (checked first) and a
    strictly SPD Onsager operator.  With ``s`` the symmetric square root of
    the Onsager operator, ``inv(s) @ a @ s`` is symmetric; its orthogonal
    eigendecomposition yields the eigenvalues and the transform.  Its
    ``residual`` is the one relative defect of the forward factorisation,
    ``spectral._factorisation_residual`` of ``a``.

    Raises
    ------
    FlowMismatchError
        ``a`` does not equal ``-onsager @ hessian`` at tolerance.
    NotSPDError
        The Onsager operator is not strictly positive definite.
    AsymmetryDefectError
        The transformed matrix fails its symmetry certificate, signalling
        inconsistent inputs.
    """
    a = as_square_matrix(a)
    if not verify_flow_identity(a, gs).max_residual <= tol:
        raise FlowMismatchError("matrix does not satisfy a = -onsager @ hessian")
    root = symmetric_sqrt(gs.onsager, tol)
    transformed = np.linalg.solve(root, a @ root)
    if not _is_symmetric(transformed, tol):
        raise AsymmetryDefectError("square-root conjugation of the matrix is not symmetric")

    eigenvalues, basis = np.linalg.eigh(_symmetric_part(transformed))
    # Columns of root @ basis are eigenvectors of a.
    return _certify_eigenbasis(a, eigenvalues, root @ basis)


def _central_difference_jacobian(fn, x0: np.ndarray, step: float) -> np.ndarray:
    dim = x0.size
    columns = []
    for j in range(dim):
        offset = np.zeros(dim)
        offset[j] = step
        plus = as_vector(fn(x0 + offset), dim)
        minus = as_vector(fn(x0 - offset), dim)
        columns.append((plus - minus) / (2.0 * step))
    return np.column_stack(columns)


def linearise_generalised(probe: GeneralisedSystemProbe,
                          step: float | None = None) -> CanonicalGradientSystem:
    """Quadratise a generalised gradient system at its equilibrium.

    The mobility is the force-Hessian of the dissipation potential at zero
    force and the energy curvature is the Hessian of the energy, both by
    central finite differences with ``step`` (default
    ``1e-5 * max|equilibrium|``, ``1e-5`` at 0).  Both matrices are
    symmetrized and validated by :class:`CanonicalGradientSystem`.  The
    equilibrium rests when ``|velocity| <= 1e-6 * max|equilibrium|``
    (``1e-6`` at 0).

    Raises :class:`NotCriticalError` when the equilibrium does not rest
    (the dissipation gradient at minus the energy gradient is nonzero) and
    :class:`NotSPDError` when the mobility fails the system's
    semi-definiteness check, which contradicts convexity of the
    dissipation potential.
    """
    eq = probe.equilibrium
    scale = float(np.max(np.abs(eq))) or 1.0
    if step is None:
        step = 1e-5 * scale
    if step <= 0.0:
        raise ValueError("finite-difference step must be positive")

    grad0 = as_vector(probe.energy_grad(eq), probe.dim)
    velocity0 = as_vector(probe.dissipation_grad(eq, -grad0), probe.dim)
    if np.linalg.norm(velocity0) > 1e-6 * scale:
        raise NotCriticalError("flow does not rest at the claimed equilibrium")

    mobility = _central_difference_jacobian(
        lambda force: probe.dissipation_grad(eq, force), np.zeros(probe.dim), step)
    curvature = _central_difference_jacobian(probe.energy_grad, eq, step)
    try:
        return CanonicalGradientSystem(_symmetric_part(mobility), _symmetric_part(curvature), eq)
    except ValueError as exc:  # the hessians are symmetric and dim x dim here
        raise NotSPDError("mobility has a negative direction; dissipation "
                          "potential is not convex") from exc


def verify_flow_identity(a, gs: CanonicalGradientSystem) -> FlowResidualReport:
    """Report the relative operator defect of ``a = -onsager @ hessian``.

    For quadratic energies the pointwise flow identity is equivalent to this
    operator identity, so the check is exhaustive rather than sampled.  Both
    Frobenius norms are taken in the units of ``spectral._unit_scale(a)``;
    for ``a = 0`` there is no scale, and any defect but 0 reads 1.
    """
    a = as_square_matrix(a)
    if a.shape[0] != gs.dim:
        raise ValueError("matrix dimension does not match the system")
    unit, e = _unit_scale(a)
    defect = np.linalg.norm(np.ldexp(a - gs.flow_matrix(), -e))
    return FlowResidualReport(_relative(defect, np.linalg.norm(unit)), 0)
