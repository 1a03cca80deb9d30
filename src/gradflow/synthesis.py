"""Construction and inversion of canonical gradient systems for linear flows.

A canonical gradient system drives ``dx/dt = -onsager @ hessian @ (x - eq)``
through the quadratic energy ``F(x) = <hessian (x - eq), x - eq> / 2`` with a
constant symmetric positive semi-definite Onsager operator.  Given a real
diagonalisation ``a = inv(t) @ diag(w) @ t`` the synthesized pair is

    onsager = inv(t) @ inv(t).T        hessian = -t.T @ diag(w) @ t

so that ``a = -onsager @ hessian`` holds as an operator identity.  The
converse direction recovers a diagonalisation from any such pair through the
symmetric square root of the Onsager operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    AsymmetryDefectError,
    FlowMismatchError,
    IllConditionedError,
    NotCriticalError,
    NotSPDError,
)
from .spectral import (
    DEFAULT_TOL,
    Diagonalisation,
    _is_symmetric,
    as_square_matrix,
    as_vector,
    canonical_eigenbasis,
    symmetric_sqrt,
)


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
        eigs = np.linalg.eigvalsh((k + k.T) / 2.0)
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
        if delta.ndim == 1:
            return float(delta @ self.hessian @ delta) / 2.0
        return np.sum((delta @ self.hessian) * delta, axis=-1) / 2.0

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
    potential.  Analytic Hessians may be supplied to skip finite
    differencing.  Construction verifies that zero force produces zero
    velocity at the equilibrium and at one nearby shifted point.
    """

    dim: int
    equilibrium: np.ndarray
    energy_grad: Callable[[np.ndarray], np.ndarray]
    dissipation_grad: Callable[[np.ndarray, np.ndarray], np.ndarray]
    energy_hessian: np.ndarray | None = None
    dissipation_hessian: np.ndarray | None = None

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        eq = as_vector(self.equilibrium, self.dim)
        object.__setattr__(self, "equilibrium", eq)
        for name in ("energy_hessian", "dissipation_hessian"):
            if getattr(self, name) is not None:
                m = as_square_matrix(getattr(self, name))
                if m.shape[0] != self.dim:
                    raise ValueError(f"{name} must be {self.dim} x {self.dim}")
                object.__setattr__(self, name, m)
        zero = np.zeros(self.dim)
        shift = 0.01 * (1.0 + np.max(np.abs(eq)))
        for point in (eq, eq + shift):
            rest = as_vector(self.dissipation_grad(point, zero), self.dim)
            if np.linalg.norm(rest) > 1e-8 * (1.0 + np.linalg.norm(point)):
                raise ValueError("dissipation gradient must vanish at zero force")


@dataclass(frozen=True)
class FlowResidualReport:
    """Worst-case defect of a flow identity over a set of checks."""

    max_residual: float
    num_samples: int
    worst_point: np.ndarray | None = None


def synthesize_canonical(diag: Diagonalisation, tol: float = DEFAULT_TOL) -> CanonicalGradientSystem:
    """Build the canonical gradient system of a real-diagonalisable flow.

    Returns the system with ``onsager = inv(t) inv(t).T``,
    ``hessian = -t.T diag(w) t`` and equilibrium 0, which satisfies
    ``a + onsager @ hessian = 0`` for the matrix that produced ``diag``.
    Raises :class:`IllConditionedError` when the Onsager operator, with
    eigenvalues ``1 / sigma_i(t)^2``, fails ``spectral.is_spd`` at ``tol``,
    that is when ``cond(t)^2 * tol >= 1`` (read off the record's norms).
    """
    condition = diag.transform_norm * diag.inverse_norm
    if condition * condition * tol >= 1.0:
        raise IllConditionedError(
            "transform too ill-conditioned: synthesized Onsager operator "
            "is not numerically SPD")
    inv_t = diag.eigenvectors
    onsager = inv_t @ inv_t.T
    onsager = (onsager + onsager.T) / 2.0
    hessian = -(diag.transform.T * diag.eigenvalues) @ diag.transform
    hessian = (hessian + hessian.T) / 2.0
    return CanonicalGradientSystem(onsager, hessian, np.zeros(diag.dim))


def recover_diagonalisation(gs: CanonicalGradientSystem, a,
                            tol: float = DEFAULT_TOL) -> Diagonalisation:
    """Recover a real diagonalisation from a canonical gradient system.

    Requires ``a = -onsager @ hessian`` within ``tol`` (checked first) and a
    strictly SPD Onsager operator.  With ``s`` the symmetric square root of
    the Onsager operator, ``inv(s) @ a @ s`` is symmetric; its orthogonal
    eigendecomposition yields the eigenvalues and the transform.

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
    if a.shape[0] != gs.dim:
        raise ValueError("matrix dimension does not match the system")
    product = gs.onsager @ gs.hessian
    ref = max(np.linalg.norm(a), np.linalg.norm(product))
    if np.linalg.norm(a + product) > tol * ref:
        raise FlowMismatchError("matrix does not satisfy a = -onsager @ hessian")
    root = symmetric_sqrt(gs.onsager, tol)
    transformed = np.linalg.solve(root, a @ root)
    if not _is_symmetric(transformed, tol):
        raise AsymmetryDefectError("square-root conjugation of the matrix is not symmetric")

    eigenvalues, basis = np.linalg.eigh((transformed + transformed.T) / 2.0)
    # Columns of root @ basis are eigenvectors of a.
    eigenvalues, eigenvectors = canonical_eigenbasis(eigenvalues, root @ basis)
    transform = np.linalg.inv(eigenvectors)
    residual = float(np.linalg.norm(a - (eigenvectors * eigenvalues) @ transform))
    return Diagonalisation(transform, eigenvalues, residual)


def _central_difference_jacobian(fn, x0: np.ndarray, step: float, dim: int) -> np.ndarray:
    columns = []
    for j in range(dim):
        offset = np.zeros(dim)
        offset[j] = step
        plus = as_vector(fn(x0 + offset), dim)
        minus = as_vector(fn(x0 - offset), dim)
        columns.append((plus - minus) / (2.0 * step))
    return np.column_stack(columns)


def linearise_generalised(probe: GeneralisedSystemProbe, step: float | None = None,
                          tol: float = 1e-6) -> CanonicalGradientSystem:
    """Quadratise a generalised gradient system at its equilibrium.

    The mobility is the force-Hessian of the dissipation potential at zero
    force and the energy curvature is the Hessian of the energy, both taken
    from the probe when supplied and otherwise by central finite differences
    with ``step`` (default ``1e-5 * (1 + |equilibrium|)``).  Both matrices
    are symmetrized and validated by :class:`CanonicalGradientSystem`;
    ``tol`` bounds only the rest check.

    Raises :class:`NotCriticalError` when the equilibrium does not rest
    (the dissipation gradient at minus the energy gradient is nonzero) and
    :class:`NotSPDError` when the mobility fails the system's
    semi-definiteness check, which contradicts convexity of the
    dissipation potential.
    """
    eq = probe.equilibrium
    if step is None:
        step = 1e-5 * (1.0 + np.linalg.norm(eq))
    if step <= 0.0:
        raise ValueError("finite-difference step must be positive")

    grad0 = as_vector(probe.energy_grad(eq), probe.dim)
    velocity0 = as_vector(probe.dissipation_grad(eq, -grad0), probe.dim)
    if np.linalg.norm(velocity0) > tol * (1.0 + np.linalg.norm(grad0)):
        raise NotCriticalError("flow does not rest at the claimed equilibrium")

    if probe.dissipation_hessian is not None:
        mobility = probe.dissipation_hessian
    else:
        mobility = _central_difference_jacobian(
            lambda force: probe.dissipation_grad(eq, force),
            np.zeros(probe.dim), step, probe.dim)
    if probe.energy_hessian is not None:
        curvature = probe.energy_hessian
    else:
        curvature = _central_difference_jacobian(probe.energy_grad, eq, step, probe.dim)

    mobility = (mobility + mobility.T) / 2.0
    curvature = (curvature + curvature.T) / 2.0
    try:
        return CanonicalGradientSystem(mobility, curvature, eq)
    except ValueError as exc:  # the hessians are symmetric and dim x dim here
        raise NotSPDError("mobility has a negative direction; dissipation "
                          "potential is not convex") from exc


def verify_flow_identity(a, gs: CanonicalGradientSystem) -> FlowResidualReport:
    """Report the relative operator defect of ``a = -onsager @ hessian``.

    For quadratic energies the pointwise flow identity is equivalent to this
    operator identity, so the check is exhaustive rather than sampled.
    """
    a = as_square_matrix(a)
    if a.shape[0] != gs.dim:
        raise ValueError("matrix dimension does not match the system")
    defect = np.linalg.norm(a + gs.onsager @ gs.hessian)
    scale = np.linalg.norm(a)
    if scale == 0.0:
        residual = 0.0 if defect == 0.0 else float("inf")
    else:
        residual = float(defect / scale)
    return FlowResidualReport(residual, 0, None)
