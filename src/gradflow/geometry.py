"""Metric geometry of constant-mobility gradient systems.

With a constant Onsager operator the induced distance is flat:
``d(x1, x2) = |t (x2 - x1)|`` where ``t`` is the diagonalising transform,
and geodesics are straight lines.  This module computes that distance, the
convexity moduli of the quadratic energy in both the ambient norm and the
transport metric, and sampled certificates for the convexity, monotonicity
and contraction inequalities.  All of it reads the
:class:`~gradflow.spectral.Diagonalisation` record: ``transform`` and its
two cached operator norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvexityConstantsError
from .flow import exact_flow
from .spectral import DEFAULT_TOL, Diagonalisation, as_vector
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


def metric_distance(diag: Diagonalisation, x1, x2) -> float:
    """Distance ``|transform @ (x2 - x1)|`` induced by the constant mobility."""
    x1 = as_vector(x1, diag.dim)
    x2 = as_vector(x2, diag.dim)
    return float(np.linalg.norm(diag.transform @ (x2 - x1)))


def convexity_constants(diag: Diagonalisation) -> ConvexityConstants:
    """Convexity moduli of the energy synthesized from ``diag``.

    The geodesic modulus is computed directly from the norm case split on
    the sign of the largest eigenvalue, then cross-checked against the
    two-step route (ambient modulus followed by the metric-norm transfer);
    the two must agree by construction.  Raises
    :class:`~gradflow.errors.ConvexityConstantsError` when a factor or
    modulus is not a finite double (a transform norm above about 1e154
    squares out of range) or when the cross-check fails.
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
        if flat_lambda > 0.0:
            transferred = flat_lambda / t_norm ** 2
        else:
            transferred = flat_lambda * inv_norm ** 2
        finite = all(map(math.isfinite, (flat_factor, geo_factor, flat_lambda,
                                         geodesic_lambda, transferred)))
    except OverflowError:  # Python float ** raises where * returns inf
        finite = False
    if not finite:
        raise ConvexityConstantsError(
            "convexity constants are not finite doubles (transform norm "
            f"{t_norm:.3g}, inverse norm {inv_norm:.3g})")
    if not np.isclose(transferred, geodesic_lambda, rtol=1e-12, atol=0.0):
        raise ConvexityConstantsError(
            "direct and transferred convexity moduli disagree")
    return ConvexityConstants(sup, flat_lambda, geodesic_lambda,
                              flat_factor, geo_factor)


def _ball_points(rng: np.random.Generator, count: int, dim: int,
                 radius: float) -> np.ndarray:
    u = rng.standard_normal((count, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = radius * rng.uniform(size=(count, 1)) ** (1.0 / dim)
    return r * u


def check_strong_monotonicity(gs: CanonicalGradientSystem, flat_lambda: float,
                              samples: int = 1000, seed: int = 0,
                              radius: float = 1.0) -> float:
    """Worst violation of ``<B dx, dx> >= flat_lambda |dx|^2`` over random pairs.

    Returns ``max(0, ...)``; a correct modulus yields at most numerical
    noise.
    """
    rng = np.random.default_rng(seed)
    x1 = _ball_points(rng, samples, gs.dim, radius)
    x2 = _ball_points(rng, samples, gs.dim, radius)
    delta = x1 - x2
    quad = np.sum((delta @ gs.hessian) * delta, axis=1)
    violation = flat_lambda * np.sum(delta * delta, axis=1) - quad
    return float(max(0.0, np.max(violation)))


def default_theta_grid() -> np.ndarray:
    """Eleven uniform nodes on [0, 1] plus two probes straddling the midpoint."""
    return np.concatenate([np.linspace(0.0, 1.0, 11), [0.499, 0.501]])


def check_geodesic_convexity(gs: CanonicalGradientSystem, diag: Diagonalisation,
                             geodesic_lambda: float, samples: int = 1000,
                             theta_grid=None, seed: int = 0,
                             radius: float = 1.0) -> float:
    """Worst positive defect of the geodesic convexity inequality.

    Geodesics of the constant-mobility metric are straight lines, so the
    inequality is sampled along segments between random pairs at every
    interpolation parameter in ``theta_grid``.
    """
    if theta_grid is None:
        theta_grid = default_theta_grid()
    rng = np.random.default_rng(seed)
    x1 = _ball_points(rng, samples, gs.dim, radius)
    x2 = _ball_points(rng, samples, gs.dim, radius)
    e1 = gs.energy(x1)
    e2 = gs.energy(x2)
    dist_sq = np.sum(((x2 - x1) @ diag.transform.T) ** 2, axis=1)
    worst = 0.0
    for theta in np.asarray(theta_grid, dtype=float):
        mid = (1.0 - theta) * x1 + theta * x2
        bound = ((1.0 - theta) * e1 + theta * e2
                 - geodesic_lambda * theta * (1.0 - theta) / 2.0 * dist_sq)
        worst = max(worst, float(np.max(gs.energy(mid) - bound)))
    return max(0.0, worst)


def check_contraction(diag: Diagonalisation, geodesic_lambda: float,
                      pairs: int = 100, times=(0.1, 1.0, 10.0), seed: int = 0,
                      radius: float = 1.0) -> float:
    """Worst positive defect of ``d(x1(t), x2(t)) <= exp(-lambda t) d(x1, x2)``.

    Pairs are propagated with the exact flow; the defect is maximised over
    pairs and times.
    """
    rng = np.random.default_rng(seed)
    x1 = _ball_points(rng, pairs, diag.dim, radius)
    x2 = _ball_points(rng, pairs, diag.dim, radius)
    d0 = np.linalg.norm((x2 - x1) @ diag.transform.T, axis=1)
    worst = 0.0
    for t in times:
        y1 = exact_flow(diag, x1, t)
        y2 = exact_flow(diag, x2, t)
        dt = np.linalg.norm((y2 - y1) @ diag.transform.T, axis=1)
        with np.errstate(over="ignore"):
            bound = np.exp(-geodesic_lambda * t) * d0
        worst = max(worst, float(np.max(dt - bound)))
    return max(0.0, worst)


def essential_range_check(diag: Diagonalisation, spectrum_bound: float = 0.0,
                          tol: float = DEFAULT_TOL) -> bool:
    """True iff every eigenvalue is at most ``spectrum_bound`` (tolerance-scaled).

    With the bound 0 this encodes the finite-measure conclusion that a
    non-positive spectrum forces non-positive multipliers everywhere.
    """
    scale = max(1.0, abs(spectrum_bound), float(np.max(np.abs(diag.eigenvalues))))
    return bool(np.max(diag.eigenvalues) <= spectrum_bound + tol * scale)
