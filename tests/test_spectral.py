"""Spectral kernel tests: diagonalisability, square roots, SPD checks."""

import numpy as np
import pytest
import sympy

from gradflow import (
    Diagonalisation,
    FailureKind,
    inspect_spectrum,
    is_spd,
    nonreversible_three_state_system,
    real_diagonalise,
    symmetric_sqrt,
)
from gradflow.errors import NotDiagonalisableError, NotSPDError

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


def test_diagonalisation_validates_fields():
    with pytest.raises(ValueError):
        Diagonalisation(np.zeros((2, 2)), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Diagonalisation(np.eye(2), np.array([1.0, 2.0, 3.0]))


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
