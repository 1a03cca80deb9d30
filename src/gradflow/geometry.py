"""Metric geometry of constant-mobility gradient systems.

With a constant Onsager operator the induced distance is flat:
``d(x1, x2) = |t (x2 - x1)|`` where ``t`` is the diagonalising transform,
and geodesics are straight lines.  This module computes that distance, the
convexity moduli of the quadratic energy in the ambient norm and in the
transport metric (each read off one case split on the sign of the largest
eigenvalue), and certificates for the convexity, monotonicity and
contraction inequalities.  Straight geodesics and a quadratic energy make
each defect a closed form in ``dx = x2 - x1``, so each certificate is its
exact worst case over all pairs per unit size of ``dx``: one symmetric
eigenvalue, or one scalar per time.  :func:`contraction_defect` is the one
form of the contraction bound and :func:`metric_distance` the one distance,
both shared with the pair audit of ``simulate``.  All of it reads the
:class:`~gradflow.spectral.Diagonalisation` record: ``transform``,
``eigenvalues`` and the two cached operator norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvexityConstantsError
from .spectral import DEFAULT_TOL, Diagonalisation, _symmetric_part, as_states, guarded_exp
from .synthesis import CanonicalGradientSystem


@dataclass(frozen=True)
class ConvexityConstants:
    """Convexity moduli of the synthesized energy.

    ``flat_lambda`` is the modulus in the ambient Euclidean norm,
    ``geodesic_lambda`` the modulus in the transport metric; the two factor
    fields record the norm factors of the respective case splits.
    """

    sup_eigenvalue: float
    flat_lambda: float
    geodesic_lambda: float
    flat_factor: float
    geodesic_factor: float


def metric_distance(diag: Diagonalisation, x1, x2) -> float | np.ndarray:
    """Distance ``|transform @ (x2 - x1)|`` of the constant mobility; states in
    rows (broadcast) give one per row, all from one product ``(x2 - x1) @ transform.T``."""
    x1, x2 = as_states(x1, diag.dim), as_states(x2, diag.dim)
    return np.linalg.norm((x2 - x1) @ diag.transform.T, axis=-1)


def convexity_constants(diag: Diagonalisation) -> ConvexityConstants:
    """Convexity moduli of the energy synthesized from ``diag``.

    Each modulus has one route: ``-sup`` times the norm factor of its case
    split on the sign of the largest eigenvalue ``sup``.  The geodesic
    modulus equals the ambient one transferred to the transport metric
    (divided by ``|t|^2`` when positive, multiplied by ``|inv(t)|^2``
    otherwise).  Raises :class:`~gradflow.errors.ConvexityConstantsError`
    when a factor or modulus is not a finite double (a transform norm above
    about 1e154 squares out of range).
    """
    t_norm = diag.transform_norm
    inv_norm = diag.inverse_norm
    sup = float(np.max(diag.eigenvalues))
    try:
        if sup >= 0.0:
            flat_factor = t_norm ** 2
            geo_factor = inv_norm ** 2 * t_norm ** 2
        else:
            flat_factor = inv_norm ** -2
            geo_factor = 1.0 / (inv_norm ** 2 * t_norm ** 2)
        flat_lambda = -sup * flat_factor
        geodesic_lambda = -sup * geo_factor
        finite = all(map(math.isfinite, (flat_factor, geo_factor, flat_lambda,
                                         geodesic_lambda)))
    except OverflowError:  # Python float ** raises where * returns inf
        finite = False
    if not finite:
        raise ConvexityConstantsError(
            "convexity constants are not finite doubles (transform norm "
            f"{t_norm:.3g}, inverse norm {inv_norm:.3g})")
    return ConvexityConstants(sup, flat_lambda, geodesic_lambda,
                              flat_factor, geo_factor)


def check_strong_monotonicity(gs: CanonicalGradientSystem, flat_lambda: float,
                              samples: int = 1000, seed: int = 0) -> float:
    """Worst violation of ``<B dx, dx> >= flat_lambda |dx|^2`` per unit ``|dx|^2``,
    ``max(0, flat_lambda - lambda_min(B))``; a correct modulus yields at
    most numerical noise.  ``samples`` and ``seed`` are ignored.
    """
    b_min = float(np.linalg.eigvalsh(_symmetric_part(gs.hessian))[0])
    return max(0.0, flat_lambda - b_min)


def check_geodesic_convexity(gs: CanonicalGradientSystem, diag: Diagonalisation,
                             geodesic_lambda: float, samples: int = 1000,
                             seed: int = 0) -> float:
    """Worst positive defect of the geodesic convexity inequality per unit ``|dx|^2``.

    On the straight geodesic from ``x1`` to ``x1 + dx`` the defect of the
    quadratic energy at ``theta`` is exactly ``theta (1-theta)/2 (lambda
    |T dx|^2 - <B dx, dx>)``, largest at ``theta = 1/2``, so its worst case
    is ``max(0, lambda_max(lambda T^T T - B)) / 8``.  ``B = gs.hessian``
    and ``T = diag.transform`` are read separately, so a hessian that does
    not match its transform shows as a defect.  ``samples`` and ``seed``
    are ignored.
    """
    t = diag.transform
    gap = _symmetric_part(geodesic_lambda * (t.T @ t) - gs.hessian)
    return max(0.0, float(np.linalg.eigvalsh(gap)[-1])) / 8.0


def contraction_defect(gaps, d0, geodesic_lambda: float, times) -> float:
    """Worst positive defect of ``gaps <= exp(-lambda t) d0``, broadcast over
    ``gaps``, the starting distances ``d0`` and ``times``.

    A zero ``d0`` bounds by 0: identical starts stay together, and the bound
    is not ``exp(...) * 0 = nan`` where the exponential overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = np.where(d0 > 0.0, np.exp(-geodesic_lambda * times) * d0, 0.0)
    return float(max(0.0, np.max(gaps - bounds)))


def check_contraction(diag: Diagonalisation, geodesic_lambda: float,
                      pairs: int = 100, times=None, seed: int = 0) -> float:
    """Worst positive defect of ``d(x1(t), x2(t)) <= exp(-lambda t) d(x1, x2)``
    per unit starting distance.

    ``times`` defaults to ``0.1, 1, 10`` in units of ``1/max|w|`` (unit time
    when ``w = 0``), so the scale of ``A`` drops out.  The exact flow moves
    ``z = T (x2 - x1)`` to ``exp(t w) * z``, so the worst growth of ``|z|``
    is ``max_i exp(t w_i)``, whose :func:`contraction_defect` against a unit
    ``|z|`` is maximised over times.  Raises
    :class:`~gradflow.errors.FlowOverflowError` when some ``t * w_i``
    exceeds the exp range.  ``pairs`` and ``seed`` are ignored.
    """
    if times is None:
        unit = float(np.max(np.abs(diag.eigenvalues))) or 1.0
        times = (0.1 / unit, 1.0 / unit, 10.0 / unit)
    times = np.asarray(times, dtype=float)
    growth = guarded_exp(np.max(np.multiply.outer(times, diag.eigenvalues), axis=1))
    return contraction_defect(growth, 1.0, geodesic_lambda, times)


def essential_range_check(diag: Diagonalisation, tol: float = DEFAULT_TOL) -> bool:
    """True iff every eigenvalue is at most ``tol * max|w|``.

    This encodes the finite-measure conclusion that a non-positive spectrum
    forces non-positive multipliers everywhere.
    """
    w = diag.eigenvalues
    return bool(np.max(w) <= tol * float(np.max(np.abs(w))))
