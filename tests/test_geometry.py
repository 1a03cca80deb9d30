"""Metric, convexity-constant, and inequality-certificate tests."""

import numpy as np
import pytest

from gradflow import (
    CanonicalGradientSystem,
    Diagonalisation,
    check_contraction,
    check_geodesic_convexity,
    check_strong_monotonicity,
    convexity_constants,
    essential_range_check,
    exact_flow,
    metric_distance,
    nonreversible_three_state,
    real_diagonalise,
    reversible_three_state,
    synthesize_canonical,
)

from gradflow.errors import FlowOverflowError

from conftest import make_diagonalisation


def test_distance_euclidean_case():
    diag = Diagonalisation(np.eye(2), np.zeros(2))
    assert metric_distance(diag, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)


def test_distance_weighted_transform():
    diag = Diagonalisation(np.diag([2.0, 1.0]), np.zeros(2))
    # |diag(2,1) (1,1)| = sqrt(4 + 1)
    assert metric_distance(diag, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(np.sqrt(5.0))


def test_distance_vanishes_only_on_diagonal(rng):
    diag = make_diagonalisation(rng, 4)
    x = rng.standard_normal(4)
    assert metric_distance(diag, x, x) == 0.0
    y = x + 1e-3 * rng.standard_normal(4)
    assert metric_distance(diag, x, y) > 0.0


def test_metric_axioms_on_samples(rng):
    diag = make_diagonalisation(rng, 5, cond=40.0)
    for _ in range(50):
        a, b, c = rng.standard_normal((3, 5))
        dab = metric_distance(diag, a, b)
        assert dab == pytest.approx(metric_distance(diag, b, a), rel=1e-12)
        assert dab <= (metric_distance(diag, a, c)
                       + metric_distance(diag, c, b)) * (1.0 + 1e-12)


def test_metric_bounds_against_euclidean(rng):
    diag = make_diagonalisation(rng, 5, cond=100.0)
    for _ in range(100):
        a, b = rng.standard_normal((2, 5))
        gap = np.linalg.norm(b - a)
        d = metric_distance(diag, a, b)
        assert gap / diag.inverse_norm <= d * (1.0 + 1e-10)
        assert d <= diag.transform_norm * gap * (1.0 + 1e-10)


def test_constants_for_identity_transform():
    diag = Diagonalisation(np.eye(2), np.array([-1.0, -2.0]))
    cc = convexity_constants(diag)
    assert cc.sup_eigenvalue == -1.0
    assert cc.flat_factor == pytest.approx(1.0)
    assert cc.geodesic_factor == pytest.approx(1.0)
    assert cc.flat_lambda == pytest.approx(1.0)
    assert cc.geodesic_lambda == pytest.approx(1.0)


def test_constants_for_weighted_transform():
    # norms are 2 and 1; negative spectrum takes the inverse-norm branch:
    # flat modulus 1, transferred to 1/4 in the metric
    diag = Diagonalisation(np.diag([2.0, 1.0]), np.array([-1.0, -1.0]))
    cc = convexity_constants(diag)
    assert cc.flat_lambda == pytest.approx(1.0)
    assert cc.geodesic_lambda == pytest.approx(0.25)


def test_constants_vanish_for_generator_spectrum():
    diag = real_diagonalise(reversible_three_state().matrix)
    cc = convexity_constants(diag)
    assert cc.sup_eigenvalue == pytest.approx(0.0, abs=1e-12)
    assert abs(cc.geodesic_lambda) <= 1e-12


def test_constants_direct_equals_transferred_in_both_regimes(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 10))
        diag = make_diagonalisation(rng, dim, cond=10.0 ** rng.uniform(0.0, 3.0))
        for branch in ("negative", "positive"):
            if branch == "negative":
                shifted = diag.eigenvalues - np.max(diag.eigenvalues) - 1.0
            else:
                shifted = diag.eigenvalues - np.min(diag.eigenvalues) + 1.0
            cc = convexity_constants(Diagonalisation(diag.transform, shifted))
            nv = np.linalg.norm(diag.transform, 2)
            nvi = np.linalg.norm(np.linalg.inv(diag.transform), 2)
            if cc.flat_lambda > 0.0:
                composed = cc.flat_lambda / nv ** 2
            else:
                composed = cc.flat_lambda * nvi ** 2
            assert composed == pytest.approx(cc.geodesic_lambda, rel=1e-10)
            # non-positive spectrum forces a non-negative geodesic modulus
            if np.max(shifted) <= 0.0:
                assert cc.geodesic_lambda >= 0.0


def test_monotonicity_holds_at_true_modulus():
    # equality case: unit curvature saturates the bound with modulus 1
    flat = CanonicalGradientSystem(np.eye(2), np.eye(2), np.zeros(2))
    assert check_strong_monotonicity(flat, 1.0, samples=500, seed=1) == 0.0
    gs = CanonicalGradientSystem(np.eye(2), np.diag([1.0, 2.0]), np.zeros(2))
    assert check_strong_monotonicity(gs, 1.0, samples=500, seed=1) == 0.0


def test_monotonicity_detects_overstated_modulus():
    gs = CanonicalGradientSystem(np.eye(2), np.diag([1.0, 2.0]), np.zeros(2))
    violation = check_strong_monotonicity(gs, 1.5, samples=2000, seed=1)
    # worst case 0.5 |dx|^2 along the soft axis; pairs reach |dx| close to 2
    assert violation > 0.1


def test_geodesic_equality_case_at_midpoint():
    # identity transform, unit curvature: the inequality is tight for modulus 1
    diag = Diagonalisation(np.eye(2), np.array([-1.0, -1.0]))
    gs = synthesize_canonical(diag)
    defect = check_geodesic_convexity(gs, diag, 1.0, samples=500, seed=4)
    assert defect <= 1e-12


def test_geodesic_certificate_for_three_state_system():
    diag = real_diagonalise(nonreversible_three_state().matrix)
    gs = synthesize_canonical(diag)
    lam = convexity_constants(diag).geodesic_lambda
    assert check_geodesic_convexity(gs, diag, lam, samples=1000, seed=5) <= 1e-9


def test_geodesic_certificate_for_random_systems(rng):
    for seed in range(10):
        diag = make_diagonalisation(rng, int(rng.integers(2, 8)),
                                    cond=10.0 ** rng.uniform(0.0, 2.0))
        gs = synthesize_canonical(diag)
        lam = convexity_constants(diag).geodesic_lambda
        scale = np.linalg.norm(gs.hessian, 2) + abs(lam) * diag.transform_norm ** 2
        assert (check_geodesic_convexity(gs, diag, lam, samples=300, seed=seed)
                <= 1e-9 * max(scale, 1.0))


def _certificate_pairs(seed, count, dim):
    """The certificates' draws: two batches of points uniform in the unit ball."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(2):
        u = rng.standard_normal((count, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        points.append(rng.uniform(size=(count, 1)) ** (1.0 / dim) * u)
    return points


def _overstated_modulus(diag):
    lam = convexity_constants(diag).geodesic_lambda
    over = lam + 1.0 + abs(lam)
    assert over > -np.max(diag.eigenvalues)  # above the sharp modulus -max(w)
    return over


@pytest.mark.parametrize("dim", [3, 6, 50])
def test_geodesic_certificate_flags_overstated_modulus(rng, dim):
    diag = make_diagonalisation(rng, dim, low=-1.0, high=1.0)
    gs = synthesize_canonical(diag)
    over = _overstated_modulus(diag)
    defect = check_geodesic_convexity(gs, diag, over, samples=200, seed=11)
    # energy-based reference at theta = 1/2, where theta (1 - theta) peaks
    x1, x2 = _certificate_pairs(11, 200, dim)
    dist_sq = np.sum(((x2 - x1) @ diag.transform.T) ** 2, axis=1)
    bound = 0.5 * gs.energy(x1) + 0.5 * gs.energy(x2) - over / 8.0 * dist_sq
    reference = np.max(gs.energy(0.5 * x1 + 0.5 * x2) - bound)
    assert defect > 0.0
    assert defect == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("dim", [3, 6, 50])
def test_contraction_certificate_flags_overstated_modulus(rng, dim):
    diag = make_diagonalisation(rng, dim, low=-1.0, high=1.0)
    over = _overstated_modulus(diag)
    times = (0.1, 1.0, 10.0)
    defect = check_contraction(diag, over, pairs=200, times=times, seed=12)
    # reference: propagate both ends of every pair with the exact flow
    x1, x2 = _certificate_pairs(12, 200, dim)
    d0 = np.linalg.norm((x2 - x1) @ diag.transform.T, axis=1)
    reference = max(
        np.max(np.linalg.norm((exact_flow(diag, x2, t) - exact_flow(diag, x1, t))
                              @ diag.transform.T, axis=1) - np.exp(-over * t) * d0)
        for t in times)
    assert defect > 0.0
    assert defect == pytest.approx(reference, rel=1e-12)


def test_contraction_refuses_exponent_beyond_double_range():
    diag = Diagonalisation(np.eye(2), np.array([-1.0, 80.0]))
    with pytest.raises(FlowOverflowError):
        check_contraction(diag, 0.0, pairs=10, times=(1.0, 10.0), seed=13)


def test_contraction_tight_for_diagonal_flow():
    # identity transform: modulus equals the slowest decay rate exactly
    diag = Diagonalisation(np.eye(2), np.array([-1.0, -0.3]))
    defect = check_contraction(diag, 0.3, pairs=300,
                               times=(0.5, 2.0), seed=6)
    assert defect <= 1e-12


def test_contraction_at_time_zero():
    diag = Diagonalisation(np.diag([2.0, 1.0]), np.array([-1.0, 1.0]))
    assert check_contraction(diag, -2.0, pairs=100, times=(0.0,),
                             seed=7) <= 1e-12


def test_contraction_nonexpansive_for_generators():
    for factory in (reversible_three_state, nonreversible_three_state):
        diag = real_diagonalise(factory().matrix)
        assert check_contraction(diag, 0.0, pairs=200,
                                 times=(0.1, 1.0, 10.0), seed=8) <= 1e-12


def test_exact_propagator_distance_identity(rng):
    """Sharper than the contraction bound: mode-wise decay of the distance."""
    diag = make_diagonalisation(rng, 4, cond=30.0)
    for _ in range(20):
        x1, x2 = rng.standard_normal((2, 4))
        t = float(rng.uniform(0.0, 2.0))
        moved = metric_distance(diag, exact_flow(diag, x1, t),
                                exact_flow(diag, x2, t))
        modes = diag.transform @ (x1 - x2)
        expected = np.sqrt(np.sum(np.exp(2.0 * t * diag.eigenvalues) * modes ** 2))
        assert moved == pytest.approx(expected, rel=1e-9)


def test_essential_range_check_cases():
    eye = np.eye(3)
    assert essential_range_check(Diagonalisation(eye, np.array([0.0, -3.0, -6.0])))
    assert not essential_range_check(Diagonalisation(np.eye(2), np.array([1.0, -1.0])))
    assert essential_range_check(Diagonalisation(np.eye(2), np.array([0.0, 0.0])))
    assert essential_range_check(Diagonalisation(np.eye(2), np.array([3.0, 1.0])),
                                 spectrum_bound=3.0)
