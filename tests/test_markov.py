"""Markov specialisation tests: generators, reversibility, entropic structure."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradflow import (
    EntropicStructure,
    GeneratorMatrix,
    entropic_onsager,
    entropic_probe,
    exact_flow,
    is_reversible,
    linearise_generalised,
    log_mean,
    nonreversible_three_state,
    real_diagonalise,
    relative_entropy,
    reversible_three_state,
    stationary_distribution,
    validate_generator,
    verify_entropic_flow,
)
from gradflow.errors import (
    ColumnSumError,
    DegenerateKernelError,
    NegativeRateError,
    NonPositiveInputError,
    NonPositiveStateError,
    NotReversibleError,
)


def birth_death_three_state():
    """Non-uniform reversible chain: up rates (2, 1), down rates (3, 4)."""
    return validate_generator(np.array([[-2.0, 3.0, 0.0],
                                        [2.0, -4.0, 4.0],
                                        [0.0, 1.0, -4.0]]))


def test_validate_accepts_worked_examples():
    validate_generator(reversible_three_state().matrix)
    validate_generator(nonreversible_three_state().matrix)


def test_validate_rejects_nonzero_column_sum():
    with pytest.raises(ColumnSumError):
        validate_generator(np.array([[-1.0, 0.0], [2.0, 0.0]]))


def test_validate_rejects_negative_rate():
    with pytest.raises(NegativeRateError):
        validate_generator(np.array([[-1.0, -0.5], [1.0, 0.5]]))


def test_stationary_uniform_for_symmetric_chain():
    pi = stationary_distribution(reversible_three_state())
    assert np.allclose(pi, 1.0 / 3.0)
    assert np.allclose(reversible_three_state().matrix @ pi, 0.0, atol=1e-12)


def test_stationary_of_nonreversible_chain():
    # hand-solved kernel: the columns balance at the uniform vector
    pi = stationary_distribution(nonreversible_three_state())
    assert np.allclose(pi, 1.0 / 3.0, atol=1e-12)
    assert np.min(pi) > 0.0
    assert pi.sum() == pytest.approx(1.0)


def test_stationary_of_birth_death_chain():
    # detailed balance gives pi proportional to (6, 4, 1)
    pi = stationary_distribution(birth_death_three_state())
    assert np.allclose(pi, np.array([6.0, 4.0, 1.0]) / 11.0, atol=1e-12)


def test_stationary_single_state():
    assert stationary_distribution(GeneratorMatrix(np.array([[0.0]]))) == 1.0


def test_stationary_rejects_reducible_chain():
    blocks = np.zeros((4, 4))
    blocks[:2, :2] = [[-1.0, 2.0], [1.0, -2.0]]
    blocks[2:, 2:] = [[-3.0, 1.0], [3.0, -1.0]]
    with pytest.raises(DegenerateKernelError):
        stationary_distribution(GeneratorMatrix(blocks))


def test_reversibility_of_worked_examples():
    uniform = np.full(3, 1.0 / 3.0)
    assert is_reversible(reversible_three_state(), uniform)
    assert not is_reversible(nonreversible_three_state(), uniform)


def test_two_state_chains_are_always_reversible(rng):
    for _ in range(20):
        up, down = rng.uniform(0.1, 5.0, size=2)
        gen = validate_generator(np.array([[-up, down], [up, -down]]))
        assert is_reversible(gen, stationary_distribution(gen))


def test_log_mean_fixed_points_and_values():
    for x in (0.3, 1.0, 7.5):
        assert log_mean(x, x) == pytest.approx(x)
    assert log_mean(1.0, np.e) == pytest.approx(np.e - 1.0, rel=1e-14)


def test_log_mean_near_equal_against_highprec_oracle():
    import mpmath

    mpmath.mp.dps = 60
    for gap in (1e-13, 1e-9, 2e-8, 1e-4):
        a, b = 1.0 + gap, 1.0
        hi_a, hi_b = mpmath.mpf(a), mpmath.mpf(b)
        expected = float((hi_a - hi_b) / (mpmath.log(hi_a) - mpmath.log(hi_b)))
        assert log_mean(a, b) == pytest.approx(expected, rel=1e-10)


@given(st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=1e-6, max_value=1e6))
def test_log_mean_mean_inequalities(a, b):
    m = log_mean(a, b)
    assert min(a, b) * (1.0 - 1e-12) <= m <= max(a, b) * (1.0 + 1e-12)
    assert math.sqrt(a) * math.sqrt(b) * (1.0 - 1e-12) <= m
    assert m <= (a + b) / 2.0 * (1.0 + 1e-12)
    assert log_mean(b, a) == pytest.approx(m, rel=1e-12)


_positive = st.floats(min_value=1e-300, max_value=1e300)


@given(st.one_of(
    st.tuples(_positive, _positive),  # ratios up to 1e+-600
    st.tuples(_positive, st.floats(-1e-6, 1e-6)).map(lambda p: (p[0], p[0] * (1.0 + p[1]))),
    st.tuples(_positive, st.integers(-64, 64)).map(
        lambda p: (p[0], p[0] * (1.0 + p[1] * 2.0 ** -52))),
))
def test_log_mean_times_the_log_gap_is_the_difference(pair):
    """``log_mean(a, b) (log a - log b) = a - b``, the identity that makes the
    entropic flow check one fixed matrix; a ratio beyond the double range once
    read 0."""
    import mpmath

    a, b = pair
    m = log_mean(a, b)
    assert min(a, b) <= m <= max(a, b)
    with mpmath.workdps(50):
        hi_a, hi_b = mpmath.mpf(a), mpmath.mpf(b)
        defect = mpmath.mpf(m) * (mpmath.log(hi_a) - mpmath.log(hi_b)) - (hi_a - hi_b)
        assert abs(defect) <= 1e-13 * abs(hi_a - hi_b)


def test_log_mean_rejects_nonpositive():
    with pytest.raises(NonPositiveInputError):
        log_mean(0.0, 1.0)
    with pytest.raises(NonPositiveInputError):
        log_mean(1.0, -2.0)


def _previous_log_mean(a, b):
    """The formula log_mean replaced: every branch on every entry, then ``where``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    magnitude = np.log1p(np.abs(a - b) / np.minimum(a, b))
    gap = np.where(a >= b, magnitude, -magnitude)
    near = magnitude < 1e-8
    ratio = (a - b) / (a + b)
    series = 0.5 * (a + b) * (1.0 - ratio * ratio / 3.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (a - b) / np.where(near, 1.0, gap)
    return np.where(near, series, direct)


def test_log_mean_is_bit_identical_to_the_previous_formula():
    base = np.geomspace(1e-3, 1e3, 240)
    # pairs on both sides of the 1e-8 series branch, and exact ties
    steps = np.concatenate([np.geomspace(1e-16, 1e-6, 30), -np.geomspace(1e-16, 1e-6, 30)])
    values = np.concatenate([base, 1.0 + steps])
    assert values.size == 300
    a, b = values[:, None], values[None, :]
    out = log_mean(a, b)
    assert out.shape == (300, 300)
    assert np.array_equal(out, _previous_log_mean(a, b))
    for x, y in [(1.0, 1.0), (1.0, 1.0 + 1e-12), (2.0, 2.0 * (1 + 3e-9)),
                 (1.0, np.e), (1e-3, 1e3), (7.5, 0.25)]:
        value = log_mean(x, y)
        assert type(value) is float
        assert value == float(_previous_log_mean(x, y))


def test_log_mean_broadcasts():
    a = np.array([1.0, 2.0, 3.0])
    out = log_mean(a[:, None], a[None, :])
    assert out.shape == (3, 3)
    assert np.allclose(np.diag(out), a)
    assert out[0, 1] == pytest.approx(log_mean(1.0, 2.0))


def test_entropic_structure_from_reversible_generator():
    structure = EntropicStructure.from_generator(reversible_three_state())
    assert np.allclose(structure.stationary, 1.0 / 3.0)
    off = structure.weights[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 1.0 / 3.0)


def test_entropic_structure_rejects_nonreversible():
    with pytest.raises(NotReversibleError):
        EntropicStructure.from_generator(nonreversible_three_state())


@pytest.mark.parametrize("stationary, weights, message", [
    ([0.5, 0.5], np.ones((3, 3)), "weights dimension"),
    ([1.0, 0.0], np.ones((2, 2)), "strictly positive"),
    ([0.5, 0.6], np.ones((2, 2)), "sum to 1"),
    ([0.5, 0.5], [[1.0, 2.0], [1.0, 1.0]], "symmetric"),
], ids=["wrong-size", "zero-probability", "sum-not-1", "asymmetric-weights"])
def test_entropic_structure_refuses_inconsistent_records(stationary, weights, message):
    with pytest.raises(ValueError, match=message):
        EntropicStructure(np.array(stationary), np.array(weights))


def test_onsager_at_stationarity_is_scaled_laplacian():
    structure = EntropicStructure.from_generator(reversible_three_state())
    expected = np.array([[2.0, -1.0, -1.0],
                         [-1.0, 2.0, -1.0],
                         [-1.0, -1.0, 2.0]]) / 3.0
    assert np.allclose(entropic_onsager(structure, structure.stationary),
                       expected, atol=1e-14)


def test_onsager_of_uniform_chain_has_displayed_form(rng):
    """Entries are -(1/3) log_mean(3 x_i, 3 x_j) off the diagonal."""
    structure = EntropicStructure.from_generator(reversible_three_state())
    x = rng.dirichlet(np.ones(3)) * 0.9 + 0.03
    k = entropic_onsager(structure, x)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert k[i, j] == pytest.approx(
                    -log_mean(3 * x[i], 3 * x[j]) / 3.0, rel=1e-12)
        off = [log_mean(3 * x[i], 3 * x[j]) for j in range(3) if j != i]
        assert k[i, i] == pytest.approx(sum(off) / 3.0, rel=1e-12)


def test_onsager_matches_direct_assembly(rng):
    """Oracle: rank-one edge assembly done longhand."""
    structure = EntropicStructure.from_generator(birth_death_three_state())
    for _ in range(10):
        x = rng.dirichlet(np.ones(3)) * 0.9 + 0.03
        expected = np.zeros((3, 3))
        ratio = x / structure.stationary
        for i in range(3):
            for j in range(i + 1, 3):
                edge = np.zeros(3)
                edge[i], edge[j] = 1.0, -1.0
                expected += (structure.weights[i, j]
                             * log_mean(ratio[i], ratio[j]) * np.outer(edge, edge))
        assert np.allclose(entropic_onsager(structure, x), expected, atol=1e-13)


def test_onsager_single_edge_chain():
    gen = validate_generator(np.array([[-1.0, 2.0], [1.0, -2.0]]))
    structure = EntropicStructure.from_generator(gen)
    x = np.array([0.4, 0.6])
    conductance = (structure.weights[0, 1]
                   * log_mean(x[0] / structure.stationary[0],
                              x[1] / structure.stationary[1]))
    expected = conductance * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(entropic_onsager(structure, x), expected)


def test_onsager_kernel_and_positivity(rng):
    structure = EntropicStructure.from_generator(reversible_three_state())
    for _ in range(20):
        x = rng.dirichlet(np.ones(3)) * 0.9 + 0.03
        k = entropic_onsager(structure, x)
        assert np.allclose(k, k.T)
        assert np.allclose(k @ np.ones(3), 0.0, atol=1e-14)
        eigs = np.linalg.eigvalsh(k)
        assert eigs[0] >= -1e-14
        assert eigs[1] > 1e-3  # connected graph: kernel is exactly the constants


def test_onsager_rejects_boundary_states():
    structure = EntropicStructure.from_generator(reversible_three_state())
    with pytest.raises(NonPositiveStateError):
        entropic_onsager(structure, np.array([0.0, 0.5, 0.5]))


def test_relative_entropy_at_stationarity():
    value, grad = relative_entropy(np.full(3, 1.0 / 3.0), np.full(3, 1.0 / 3.0))
    assert value == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(grad, 1.0)


def test_relative_entropy_fixed_value():
    # sum x_i log(3 x_i) at x = (1/2, 1/4, 1/4)
    x = np.array([0.5, 0.25, 0.25])
    value, _ = relative_entropy(x, np.full(3, 1.0 / 3.0))
    assert value == pytest.approx(0.5 * np.log(1.5) + 0.5 * np.log(0.75))


def test_relative_entropy_gradient_matches_finite_differences(rng):
    pi = np.array([0.5, 0.3, 0.2])
    x = rng.dirichlet(np.ones(3)) * 0.9 + 0.03
    _, grad = relative_entropy(x, pi)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (relative_entropy(x + e, pi)[0] - relative_entropy(x - e, pi)[0]) / (2 * h)
        assert grad[j] == pytest.approx(fd, abs=1e-8)


def test_relative_entropy_rejects_nonpositive():
    with pytest.raises(NonPositiveInputError):
        relative_entropy(np.array([0.0, 1.0]), np.array([0.5, 0.5]))


def test_entropic_flow_identity_uniform_chain():
    gen = reversible_three_state()
    structure = EntropicStructure.from_generator(gen)
    report = verify_entropic_flow(gen, structure, samples=300, seed=0)
    assert report.max_residual <= 1e-9
    assert report.num_samples == 300


@pytest.mark.parametrize("samples", [0, -5])
def test_entropic_flow_refuses_a_check_of_no_point(samples):
    gen = reversible_three_state()
    structure = EntropicStructure.from_generator(gen)
    with pytest.raises(ValueError, match="at least one sample"):
        verify_entropic_flow(gen, structure, samples=samples)


def test_entropic_flow_identity_birth_death_chain():
    gen = birth_death_three_state()
    structure = EntropicStructure.from_generator(gen)
    assert verify_entropic_flow(gen, structure, samples=300,
                                seed=1).max_residual <= 1e-9


def perturbed_chain(dim, seed):
    """A random reversible chain, and its structure with one edge weight x 1.3.

    Scaling every weight by 1.3 would make each sample's residual tie at
    exactly 0.3; one edge gives each sample its own residual.
    """
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 2.0, (dim, dim))
    weights += weights.T
    pi = rng.uniform(0.5, 2.0, dim)
    pi /= pi.sum()
    a = weights / pi
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=0))
    gen = validate_generator(a)
    structure = EntropicStructure.from_generator(gen)
    wrong = structure.weights.copy()
    wrong[0, 1] *= 1.3
    wrong[1, 0] *= 1.3
    return gen, EntropicStructure(structure.stationary, wrong)


def per_sample_entropic_check(gen, structure, samples, seed=0):
    """Reference loop: the worst residual and its point, one sample at a time."""
    rng = np.random.default_rng(seed)
    dim = gen.dim
    points = rng.dirichlet(np.ones(dim), size=samples) * (1.0 - dim * 1e-3) + 1e-3
    velocity_floor = 1e-6 * np.linalg.norm(gen.matrix)
    residuals = []
    for x in points:
        velocity = gen.matrix @ x
        _, grad = relative_entropy(x, structure.stationary)
        defect = np.linalg.norm(velocity + entropic_onsager(structure, x) @ grad)
        residuals.append(defect / max(np.linalg.norm(velocity), velocity_floor))
    worst = int(np.argmax(residuals))
    return residuals[worst], points[worst]


@pytest.mark.parametrize("dim, samples", [
    (3, 1000), (20, 1000), (100, 200),
    (3, 1), (20, 1), (20, 7), (20, 1001),
])
def test_block_kernel_matches_the_per_sample_loop(dim, samples):
    gen, structure = perturbed_chain(dim, seed=dim)
    report = verify_entropic_flow(gen, structure, samples=samples, seed=3)
    expected, point = per_sample_entropic_check(gen, structure, samples, seed=3)
    assert report.num_samples == samples
    assert report.max_residual == pytest.approx(expected, rel=1e-12)
    assert report.max_residual > 1e-3  # the wrong edge is detected
    assert np.array_equal(report.worst_point, point)


def test_single_state_chain_reads_zero_without_warning():
    gen = validate_generator(np.array([[0.0]]))
    structure = EntropicStructure.from_generator(gen)
    with np.errstate(all="raise"):
        report = verify_entropic_flow(gen, structure, samples=7)
    assert report.max_residual == 0.0


@pytest.mark.parametrize("k", [0, -60])
def test_entropic_residual_does_not_depend_on_the_chain_scale(k):
    """The velocity floor scales with the chain, so a slow chain is no easier.

    With every weight x 1.1 the residual is 0.1 wherever the flow is not
    floored; a floor of 1e-6 at any scale let the 2**-60 copy read 3e-13.
    """
    gen = validate_generator(np.ldexp(np.array([[-3.0, 1.0, 2.0],
                                                 [1.0, -2.0, 1.0],
                                                 [2.0, 1.0, -3.0]]), k))
    structure = EntropicStructure.from_generator(gen)
    wrong = EntropicStructure(structure.stationary, structure.weights * 1.1)
    assert verify_entropic_flow(gen, wrong, samples=200).max_residual == pytest.approx(
        0.1, rel=1e-9)
    assert verify_entropic_flow(gen, structure, samples=200).max_residual <= 1e-12


def test_entropic_check_memory_stays_flat():
    """Samples are drawn and checked per block: at n = 100 the points of
    5000 samples alone would take 4 MB, yet the traced peak stays under 2 MB."""
    gen, structure = perturbed_chain(100, seed=100)
    tracemalloc.start()
    try:
        verify_entropic_flow(gen, structure, samples=5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def path_chain(dim, seed):
    """A reversible birth-death chain on ``dim`` states and its structure."""
    rng = np.random.default_rng(seed)
    pi = rng.uniform(0.5, 2.0, dim)
    pi /= pi.sum()
    weights = np.diag(rng.uniform(0.1, 2.0, dim - 1) / dim, 1)
    weights += weights.T
    a = weights / pi
    np.fill_diagonal(a, -a.sum(axis=0))
    return validate_generator(a), EntropicStructure(pi, weights)


def test_entropic_samples_stay_interior_on_large_chains():
    """The coordinate floor is min(1e-3, 1/(2n)): a fixed 1e-3 made every
    sample the uniform vector at n = 1000 and a negative one at n = 1200."""
    gen, structure = path_chain(1200, seed=12)
    report = verify_entropic_flow(gen, structure, samples=50)
    assert report.max_residual <= 1e-9
    assert np.min(report.worst_point) > 0.0
    assert report.worst_point.sum() == pytest.approx(1.0, rel=1e-12)
    gen, structure = path_chain(1000, seed=10)
    points = [verify_entropic_flow(gen, structure, samples=50, seed=seed).worst_point
              for seed in (0, 1)]
    assert not np.array_equal(*points)


def test_entropic_flow_rejects_nonreversible():
    gen = nonreversible_three_state()
    structure = EntropicStructure.from_generator(reversible_three_state())
    with pytest.raises(NotReversibleError):
        verify_entropic_flow(gen, structure)


def test_exact_flow_preserves_the_simplex(rng):
    for factory in (reversible_three_state, nonreversible_three_state):
        diag = real_diagonalise(factory().matrix)
        x0 = rng.dirichlet(np.ones(3)) * (1.0 - 3e-3) + 1e-3
        for t in np.linspace(0.0, 10.0, 11):
            xt = exact_flow(diag, x0, t)
            assert abs(xt.sum() - 1.0) <= 1e-12
            assert np.min(xt) > 0.0


def test_entropy_decays_along_reversible_flow(rng):
    gen = birth_death_three_state()
    pi = stationary_distribution(gen)
    diag = real_diagonalise(gen.matrix)
    x0 = rng.dirichlet(np.ones(3)) * 0.9 + 0.03
    values = [relative_entropy(exact_flow(diag, x0, t), pi)[0]
              for t in np.linspace(0.0, 5.0, 26)]
    assert np.all(np.diff(values) <= 1e-9)


@pytest.mark.parametrize("factory", [reversible_three_state, birth_death_three_state])
def test_entropic_linearisation_bridges_to_the_generator(factory):
    """Linearising the entropy-driven probe recovers the generator itself."""
    gen = factory()
    structure = EntropicStructure.from_generator(gen)
    lin = linearise_generalised(entropic_probe(structure), step=1e-5)
    mobility_at_pi = entropic_onsager(structure, structure.stationary)
    assert np.allclose(lin.onsager, mobility_at_pi, atol=1e-9)
    assert np.allclose(lin.hessian, np.diag(1.0 / structure.stationary), atol=1e-6)
    assert np.linalg.norm(gen.matrix + lin.onsager @ lin.hessian) <= 1e-6
