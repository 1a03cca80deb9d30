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

from gradflow.errors import ConvexityConstantsError, FlowOverflowError

from conftest import make_diagonalisation, make_transform


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


def test_distance_of_states_in_rows(rng):
    """Rows give one distance per row, a single state broadcasts against
    rows, and a state of the wrong size is refused."""
    diag = make_diagonalisation(rng, 4, cond=20.0)
    x1, x2 = rng.standard_normal((2, 6, 4))
    gaps = metric_distance(diag, x1, x2)
    assert gaps.shape == (6,)
    assert np.array_equal(gaps, np.linalg.norm((x2 - x1) @ diag.transform.T, axis=-1))
    for k in range(6):
        assert gaps[k] == pytest.approx(metric_distance(diag, x1[k], x2[k]), rel=1e-13)
    spread = metric_distance(diag, x1[0], x2)
    assert spread == pytest.approx([metric_distance(diag, x1[0], x) for x in x2], rel=1e-13)
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((1, 2, 4)), [0.0, np.nan, 0.0, 0.0]):
        with pytest.raises(ValueError):
            metric_distance(diag, bad, x2[0])


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


def test_convexity_constants_of_a_transform_norm_beyond_the_double_range():
    """``T = 1e160 I`` diagonalises ``diag(-1, 0)``, but ``|T|^2`` is beyond the
    double range: a :class:`ConvexityConstantsError` (exit 5), not an overflow,
    even under the CLI's ``errstate``."""
    diag = Diagonalisation(1e160 * np.eye(2), np.array([-1.0, 0.0]))
    with np.errstate(divide="raise", over="raise", invalid="raise"), \
            pytest.raises(ConvexityConstantsError, match="not finite doubles"):
        convexity_constants(diag)


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
    assert check_strong_monotonicity(flat, 1.0) == 0.0
    gs = CanonicalGradientSystem(np.eye(2), np.diag([1.0, 2.0]), np.zeros(2))
    assert check_strong_monotonicity(gs, 1.0) == 0.0


def test_monotonicity_detects_overstated_modulus():
    gs = CanonicalGradientSystem(np.eye(2), np.diag([1.0, 2.0]), np.zeros(2))
    # worst case 0.5 per unit |dx|^2, along the soft axis
    assert check_strong_monotonicity(gs, 1.5) == pytest.approx(0.5, rel=1e-15)


def test_geodesic_equality_case_at_midpoint():
    # identity transform, unit curvature: the inequality is tight for modulus 1
    diag = Diagonalisation(np.eye(2), np.array([-1.0, -1.0]))
    gs = synthesize_canonical(diag)
    defect = check_geodesic_convexity(gs, diag, 1.0)
    assert defect <= 1e-12


def test_geodesic_certificate_for_three_state_system():
    diag = real_diagonalise(nonreversible_three_state().matrix)
    gs = synthesize_canonical(diag)
    lam = convexity_constants(diag).geodesic_lambda
    assert check_geodesic_convexity(gs, diag, lam) <= 1e-9


def test_geodesic_certificate_for_random_systems(rng):
    for _ in range(10):
        diag = make_diagonalisation(rng, int(rng.integers(2, 8)),
                                    cond=10.0 ** rng.uniform(0.0, 2.0))
        gs = synthesize_canonical(diag)
        lam = convexity_constants(diag).geodesic_lambda
        scale = np.linalg.norm(gs.hessian, 2) + abs(lam) * diag.transform_norm ** 2
        assert check_geodesic_convexity(gs, diag, lam) <= 1e-9 * max(scale, 1.0)


def _certificate_pairs(seed, count, dim):
    """Two batches of points drawn uniformly from the unit ball."""
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
    defect = check_geodesic_convexity(gs, diag, over)
    # energy-based defect of each pair at theta = 1/2, where theta (1 - theta)
    # peaks, per unit |dx|^2: the exact worst case bounds every one of them
    x1, x2 = _certificate_pairs(11, 200, dim)
    dist_sq = np.sum(((x2 - x1) @ diag.transform.T) ** 2, axis=1)
    bound = 0.5 * gs.energy(x1) + 0.5 * gs.energy(x2) - over / 8.0 * dist_sq
    per_pair = gs.energy(0.5 * x1 + 0.5 * x2) - bound
    assert defect > 0.0
    assert defect >= np.max(per_pair / np.sum((x2 - x1) ** 2, axis=1))


@pytest.mark.parametrize("dim", [3, 6, 50])
def test_contraction_certificate_flags_overstated_modulus(rng, dim):
    diag = make_diagonalisation(rng, dim, low=-1.0, high=1.0)
    over = _overstated_modulus(diag)
    times = (0.1, 1.0, 10.0)
    defect = check_contraction(diag, over, times=times)
    # propagate both ends of every pair with the exact flow; the exact worst
    # case bounds each pair's defect per unit starting distance
    x1, x2 = _certificate_pairs(12, 200, dim)
    d0 = np.linalg.norm((x2 - x1) @ diag.transform.T, axis=1)
    per_pair = max(
        np.max((np.linalg.norm((exact_flow(diag, x2, t) - exact_flow(diag, x1, t))
                               @ diag.transform.T, axis=1) - np.exp(-over * t) * d0) / d0)
        for t in times)
    assert defect > 0.0
    assert defect >= per_pair


def _planted_top_mode(dim):
    """``inv(T) diag(w) T`` with cond(T) = 100 and separated ``w`` on [-5, 1]
    (largest one positive), and its synthesized system; ``k`` is the top mode."""
    rng = np.random.default_rng(5)
    spacing = 6.0 / (dim - 1)
    w = np.sort(np.linspace(-5.0, 1.0, dim) + rng.uniform(-0.2, 0.2, dim) * spacing)
    diag = Diagonalisation(make_transform(rng, dim, 100.0), w)
    return diag, synthesize_canonical(diag), int(np.argmax(w))


@pytest.mark.parametrize("dim", [20, 200])
def test_exact_certificates_flag_a_relative_1e_6_mutation_in_the_top_mode(dim):
    """Against the sharp modulus ``-max(w)``, a hessian bent by ``1e-6 |B|``
    in the top mode shows, and so does a modulus overstated by a relative
    ``1e-6``.  The defect is a quadratic form in ``dx`` whose worst case is
    one eigenvector, which random pairs almost never come near.  The paper's
    modulus, ``-sup |inv(T)|^2 |T|^2`` here, is too loose to see the bend.
    """
    diag, gs, k = _planted_top_mode(dim)
    sharp = -np.max(diag.eigenvalues)
    b_norm = np.linalg.norm(gs.hessian, 2)
    rounding = dim * np.finfo(float).eps * (b_norm + abs(sharp) * diag.transform_norm ** 2)
    t_k = diag.transform[k]
    paper = convexity_constants(diag).geodesic_lambda
    readings = []
    for eps in (0.0, 1e-6):
        bent = gs.hessian - eps * b_norm * np.outer(t_k, t_k) / (t_k @ t_k)
        mutated = CanonicalGradientSystem(gs.onsager, bent, gs.equilibrium)
        readings.append(check_geodesic_convexity(mutated, diag, sharp))
        assert check_geodesic_convexity(mutated, diag, paper) == 0.0
    assert readings[0] <= rounding
    assert readings[1] > rounding
    assert check_contraction(diag, sharp) == 0.0
    assert check_contraction(diag, sharp * (1.0 - 1e-6)) > 0.0


def test_contraction_refuses_exponent_beyond_double_range():
    diag = Diagonalisation(np.eye(2), np.array([-1.0, 80.0]))
    with pytest.raises(FlowOverflowError):
        check_contraction(diag, 0.0, times=(1.0, 10.0))


@pytest.mark.parametrize("k", [-8, 0, 8])
def test_default_contraction_times_scale_with_the_spectrum(k):
    # fixed times (0.1, 1, 10) would probe exp(800) at k = 0
    diag = real_diagonalise(2.0 ** k * np.array([[-1.0, 0.0], [0.0, 80.0]]))
    lam = convexity_constants(diag).geodesic_lambda
    assert check_contraction(diag, lam) == 0.0


def test_contraction_tight_for_diagonal_flow():
    # identity transform: modulus equals the slowest decay rate exactly
    diag = Diagonalisation(np.eye(2), np.array([-1.0, -0.3]))
    assert check_contraction(diag, 0.3, times=(0.5, 2.0)) == 0.0


def test_contraction_at_time_zero():
    diag = Diagonalisation(np.diag([2.0, 1.0]), np.array([-1.0, 1.0]))
    assert check_contraction(diag, -2.0, times=(0.0,)) == 0.0


def test_contraction_nonexpansive_for_generators():
    for factory in (reversible_three_state, nonreversible_three_state):
        diag = real_diagonalise(factory().matrix)
        assert check_contraction(diag, 0.0, times=(0.1, 1.0, 10.0)) <= 1e-12


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
    # a positive eigenvalue passes only within tol * max|w|
    assert essential_range_check(Diagonalisation(np.eye(2), np.array([1e-10, -1.0])))
    assert not essential_range_check(Diagonalisation(np.eye(2), np.array([1e-8, -1.0])))


@pytest.mark.parametrize("k", [0, -40])
def test_essential_range_check_does_not_depend_on_the_scale(k):
    # an absolute floor of 1 made 2**-40 * 1e-3 pass as non-positive
    t = np.array([[1.0, 0.5], [0.0, 1.0]])
    w = np.ldexp(np.array([-1.0, 1e-3]), k)
    assert not essential_range_check(Diagonalisation(t, w))
