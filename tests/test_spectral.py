"""Spectral kernel tests: diagonalisability, square roots, SPD checks."""

import numpy as np
import pytest
import sympy
from hypothesis import example, given, strategies as st

from gradflow import (
    Diagonalisation,
    FailureKind,
    inspect_spectrum,
    is_reversible,
    is_spd,
    nonreversible_three_state,
    nonreversible_three_state_system,
    real_diagonalise,
    recover_diagonalisation,
    reversible_three_state,
    stationary_distribution,
    symmetric_sqrt,
    synthesize_canonical,
    validate_generator,
)
from gradflow.errors import NotDiagonalisableError, NotSPDError
from gradflow.spectral import (_certify_eigenbasis, _factorisation_residual, as_vector,
                               canonical_eigenbasis)

from conftest import make_diagonalisation, make_transform

THREE_STATE = np.array([[-2.0, 0.0, 2.0], [1.0, -3.0, 2.0], [1.0, 3.0, -4.0]])


def charpoly_roots(matrix):
    """Oracle: exact roots of det(m - t I) by symbolic cofactor expansion."""
    t = sympy.symbols("t")
    m = sympy.Matrix(matrix.astype(int)) - t * sympy.eye(matrix.shape[0])
    return sorted(float(r) for r in sympy.roots(m.det(), t, multiple=True))


def test_three_state_spectrum_matches_charpoly_oracle():
    roots = charpoly_roots(THREE_STATE)
    assert roots == [-6.0, -3.0, 0.0]  # det factors as -t (t + 3) (t + 6)
    diag = real_diagonalise(THREE_STATE)
    assert np.allclose(np.sort(diag.eigenvalues), roots, atol=1e-12)
    assert diag.residual <= 1e-9 * np.linalg.norm(THREE_STATE)


def test_identity_matrix_is_trivially_diagonal():
    diag = real_diagonalise(np.eye(3))
    assert np.allclose(diag.eigenvalues, 1.0)
    assert np.allclose(diag.reconstruct(), np.eye(3), atol=1e-14)


def test_rotation_generator_has_complex_spectrum():
    with pytest.raises(NotDiagonalisableError) as info:
        real_diagonalise(np.array([[0.0, -1.0], [1.0, 0.0]]))
    report = info.value.report
    assert report.failure_kind is FailureKind.COMPLEX_SPECTRUM
    assert not report.real_diagonalisable
    assert np.allclose(np.sort(report.eigenvalues.imag), [-1.0, 1.0])
    assert np.allclose(report.eigenvalues.real, 0.0, atol=1e-12)


def test_jordan_block_is_defective():
    # the 3x3 nilpotent block's eigenbasis is exactly singular: inv raises
    for block in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag(np.ones(2), 1)):
        with pytest.raises(NotDiagonalisableError) as info:
            real_diagonalise(block)
        assert info.value.report.failure_kind is FailureKind.DEFECTIVE


def test_rounded_jordan_block_is_defective():
    """``[[-13, 9], [-16, 11]]`` is one Jordan block at -1 (trace -2,
    determinant 1, ``A + I != 0``).  Rounding splits it into two real
    eigenvalues near -1 whose eigenbasis has condition about 2.4e8: below
    ``1 / tol``, but past ``tol**-0.5``, where the synthesized Onsager
    operator stops being SPD."""
    report = inspect_spectrum(np.array([[-13.0, 9.0], [-16.0, 11.0]]))
    assert report.failure_kind is FailureKind.DEFECTIVE
    assert not report.real_diagonalisable and report.condition is None


def test_inspect_spectrum_success_report():
    report = inspect_spectrum(THREE_STATE)
    assert report.real_diagonalisable
    assert report.failure_kind is FailureKind.NONE
    assert report.condition >= 1.0


def test_zero_matrix_diagonalises_exactly():
    diag = real_diagonalise(np.zeros((4, 4)))
    assert np.all(diag.eigenvalues == 0.0)
    assert diag.residual == 0.0


def test_roundtrip_of_planted_systems(rng):
    """Planted transform and eigenvalues are reproduced up to tolerance."""
    for _ in range(25):
        dim = int(rng.integers(2, 13))
        cond = 10.0 ** rng.uniform(0.0, 3.0)
        planted = make_diagonalisation(rng, dim, cond, min_gap=0.02)
        matrix = planted.reconstruct()
        diag = real_diagonalise(matrix)
        scale = np.linalg.norm(matrix)
        assert np.linalg.norm(diag.reconstruct() - matrix) <= 10 * 1e-9 * scale
        assert np.allclose(np.sort(diag.eigenvalues),
                           np.sort(planted.eigenvalues),
                           atol=1e-9 * max(scale, 1.0))


def test_eigenbasis_with_one_eigenvalue_off_is_refused(rng):
    """The certifier reads the one factorisation measure, and ``inspect_spectrum``
    refuses it above ``tol``: the planted eigenbasis reads at most 1e-14, and
    one eigenvalue off by 1e-6 relative reads above ``tol = 1e-9``."""
    planted = make_diagonalisation(rng, 6, min_gap=0.02)
    matrix, values = planted.reconstruct(), planted.eigenvalues.copy()
    diag = _certify_eigenbasis(matrix, values, planted.eigenvectors)
    assert 0.0 < diag.residual == _factorisation_residual(matrix, diag) <= 1e-14
    values[np.argmax(np.abs(values))] *= 1.0 + 1e-6
    assert _certify_eigenbasis(matrix, values, planted.eigenvectors).residual > 1e-9


SMALL_INTEGER_MATRICES = st.integers(1, 4).flatmap(
    lambda dim: st.lists(st.integers(-3, 3), min_size=dim * dim, max_size=dim * dim)
    .map(lambda entries: np.array(entries, dtype=float).reshape(dim, dim)))


@given(SMALL_INTEGER_MATRICES)
@example(np.array([[-13.0, 9.0], [-16.0, 11.0]]))  # a Jordan block split by rounding
@example(np.diag(np.ones(2), 1))  # its eigenbasis is exactly singular
@example(np.zeros((3, 3)))
def test_real_diagonalise_returns_the_record_of_the_verdict(a):
    """One verdict: ``real_diagonalise`` succeeds exactly when the report of
    :func:`inspect_spectrum` carries a diagonalisation, and returns that record
    bit for bit; a refusal carries a report without one."""
    report = inspect_spectrum(a)
    assert report.real_diagonalisable is (report.diagonalisation is not None)
    try:
        diag = real_diagonalise(a)
    except NotDiagonalisableError as exc:
        assert report.diagonalisation is None and exc.report.diagonalisation is None
        assert exc.report.failure_kind is report.failure_kind is not FailureKind.NONE
        return
    kept = report.diagonalisation
    assert kept is not None and report.failure_kind is FailureKind.NONE
    assert np.array_equal(diag.transform, kept.transform)
    assert np.array_equal(diag.eigenvalues, kept.eigenvalues)
    assert diag.residual == kept.residual <= 1e-9


def test_symmetric_input_gives_orthogonal_transform(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 10))
        sym = rng.standard_normal((dim, dim))
        sym = sym + sym.T
        diag = real_diagonalise(sym)
        assert np.allclose(diag.transform @ diag.transform.T, np.eye(dim),
                           atol=1e-10)
        assert inspect_spectrum(sym).condition == pytest.approx(1.0, abs=1e-9)


def test_repeated_eigenvalues_with_full_eigenspace_accepted(rng):
    transform = make_transform(rng, 4, cond=50.0)
    planted = Diagonalisation(transform, np.array([-2.0, -2.0, -2.0, 1.0]))
    diag = real_diagonalise(planted.reconstruct())
    assert np.allclose(np.sort(diag.eigenvalues), [-2.0, -2.0, -2.0, 1.0],
                       atol=1e-8)


def test_output_is_deterministic():
    first = real_diagonalise(THREE_STATE)
    second = real_diagonalise(THREE_STATE)
    assert np.array_equal(first.transform, second.transform)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)


def test_rejects_invalid_input():
    with pytest.raises(ValueError):
        real_diagonalise(np.ones((2, 3)))
    with pytest.raises(ValueError):
        real_diagonalise(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        real_diagonalise(np.eye(2), tol=0.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: as_vector(np.eye(2)), ValueError, "expected a vector, got shape"),
    (lambda: as_vector([0.0, np.nan]), ValueError, "vector entries must be finite"),
    (lambda: canonical_eigenbasis(np.array([1.0, 2.0]), np.array([[1.0, 0.0], [0.0, 0.0]])),
     ValueError, "eigenbasis contains a zero column"),
    # finite entries whose largest eigenvalue, 3e308, is not
    (lambda: inspect_spectrum(np.full((2, 2), 1.5e308)), np.linalg.LinAlgError,
     "eigenvalues exceed the double range"),
], ids=["vector-of-rank-2", "vector-nan", "zero-eigenvector", "eigenvalue-overflow"])
def test_validators_refuse_malformed_arrays(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_diagonalisation_validates_fields():
    with pytest.raises(ValueError):
        Diagonalisation(np.zeros((2, 2)), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Diagonalisation(np.eye(2), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        Diagonalisation(np.eye(2), np.array([1.0, 2.0]), float("inf"))


def test_sqrt_of_identity():
    assert np.allclose(symmetric_sqrt(np.eye(3)), np.eye(3))


def test_sqrt_of_diagonal():
    assert np.allclose(symmetric_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_sqrt_remultiplication_oracle():
    k = np.array([[2.0, 1.0], [1.0, 2.0]])
    s = symmetric_sqrt(k)
    assert np.allclose(s, s.T)
    assert np.all(np.linalg.eigvalsh(s) > 0.0)
    assert np.linalg.norm(s @ s - k) <= 1e-9 * np.linalg.norm(k)


def test_sqrt_of_random_spd(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        m = make_transform(rng, dim, cond=100.0)
        k = m @ m.T
        s = symmetric_sqrt(k)
        assert np.linalg.norm(s - s.T) <= 1e-12 * np.linalg.norm(s)
        assert np.linalg.norm(s @ s - k) <= 1e-9 * np.linalg.norm(k)


def test_sqrt_rejects_non_spd():
    with pytest.raises(NotSPDError):
        symmetric_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NotSPDError):
        symmetric_sqrt(np.diag([1.0, -1.0]))


def test_is_spd_basic_cases():
    assert is_spd(np.eye(2))
    assert not is_spd(np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert not is_spd(np.zeros((2, 2)))
    assert not is_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_is_spd_accepts_three_state_onsager():
    assert is_spd(nonreversible_three_state_system().onsager)


# Entries are small integers, so every k in [-1000, 1000] keeps them finite
# and normal.
SCALE_FIXTURES = {
    "paper-reversible": reversible_three_state().matrix,
    "paper-nonreversible": THREE_STATE,
    "rotation": np.array([[0.0, -1.0], [1.0, 0.0]]),
    "jordan": np.array([[0.0, 1.0], [0.0, 0.0]]),
}
PAPER_CHAINS = ("paper-reversible", "paper-nonreversible")


@given(st.integers(min_value=-1000, max_value=1000))
@example(-700)  # the Frobenius norm of the rotation underflowed to 0
@example(600)   # and of the paper chains overflowed to inf
def test_verdicts_are_invariant_under_power_of_two_scaling(k):
    for name, a in SCALE_FIXTURES.items():
        scaled = np.ldexp(a, k)
        base, report = inspect_spectrum(a), inspect_spectrum(scaled)
        assert report.failure_kind is base.failure_kind, name
        np.testing.assert_allclose(report.eigenvalues * 2.0 ** -k, base.eigenvalues,
                                   rtol=0.0, atol=1e-12, err_msg=name)
        if name in PAPER_CHAINS:
            gen = validate_generator(scaled)
            pi = stationary_distribution(gen)
            np.testing.assert_allclose(pi, stationary_distribution(validate_generator(a)),
                                       rtol=1e-12)
            assert is_reversible(gen, pi) is (name == "paper-reversible")
            # the residual is relative and read on unit-scaled copies: no inf, no 0
            gs = synthesize_canonical(real_diagonalise(scaled))
            residual = recover_diagonalisation(gs, scaled).residual
            assert 0.0 < residual <= 1e-12, name
