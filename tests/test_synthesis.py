"""Canonical-system synthesis, recovery, and linearisation tests."""

import numpy as np
import pytest

from gradflow import (
    CanonicalGradientSystem,
    Diagonalisation,
    GeneralisedSystemProbe,
    linearise_generalised,
    nonreversible_three_state,
    nonreversible_three_state_system,
    real_diagonalise,
    recover_diagonalisation,
    symmetric_sqrt,
    synthesize_canonical,
    verify_flow_identity,
)
from gradflow.errors import (
    AsymmetryDefectError,
    FlowMismatchError,
    NotCriticalError,
    NotSPDError,
)

from conftest import make_diagonalisation, make_transform


def test_identity_transform_synthesis():
    diag = Diagonalisation(np.eye(2), np.array([-1.0, -2.0]))
    gs = synthesize_canonical(diag)
    assert np.allclose(gs.onsager, np.eye(2))
    assert np.allclose(gs.hessian, np.diag([1.0, 2.0]))
    assert np.array_equal(gs.equilibrium, np.zeros(2))
    # the synthesized energy rests at the origin exactly
    assert np.all(gs.energy_grad(np.zeros(2)) == 0.0)
    # energy is (x1^2 + 2 x2^2) / 2
    assert gs.energy([1.0, 1.0]) == pytest.approx(1.5)


def test_three_state_synthesis_solves_the_flow():
    matrix = nonreversible_three_state().matrix
    gs = synthesize_canonical(real_diagonalise(matrix))
    assert verify_flow_identity(matrix, gs).max_residual <= 1e-9
    # the published pair is a different admissible factorisation of the same flow
    assert verify_flow_identity(matrix, nonreversible_three_state_system()
                                ).max_residual <= 1e-12


def test_zero_spectrum_gives_zero_energy(rng):
    base = make_diagonalisation(rng, 3, cond=5.0)
    diag = Diagonalisation(base.transform, np.zeros(3))
    gs = synthesize_canonical(diag)
    assert np.all(gs.hessian == 0.0)
    assert verify_flow_identity(np.zeros((3, 3)), gs).max_residual == 0.0


def test_random_synthesis_identity_and_spd(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 11))
        diag = make_diagonalisation(rng, dim, cond=10.0 ** rng.uniform(0.0, 3.0))
        matrix = diag.reconstruct()
        gs = synthesize_canonical(diag)
        assert verify_flow_identity(matrix, gs).max_residual <= 1e-8
        assert np.min(np.linalg.eigvalsh(gs.onsager)) > 0.0
        # mobility quadratic form is the squared norm under the inverse transform
        xi = rng.standard_normal(dim)
        expected = np.linalg.norm(np.linalg.solve(diag.transform.T, xi)) ** 2
        assert xi @ gs.onsager @ xi == pytest.approx(expected, rel=1e-7)


def test_symmetric_flow_reduces_to_classical_gradient(rng):
    sym = rng.standard_normal((4, 4))
    sym = sym + sym.T
    gs = synthesize_canonical(real_diagonalise(sym))
    assert np.allclose(gs.onsager, np.eye(4), atol=1e-9)
    assert np.allclose(gs.hessian, -sym, atol=1e-9)


def test_recover_diagonal_case():
    gs = CanonicalGradientSystem(np.eye(2), np.diag([1.0, 2.0]), np.zeros(2))
    diag = recover_diagonalisation(gs, np.diag([-1.0, -2.0]))
    assert np.allclose(np.sort(diag.eigenvalues), [-2.0, -1.0])
    assert np.allclose(diag.transform @ diag.transform.T, np.eye(2), atol=1e-12)


def test_recover_from_published_three_state_pair():
    gs = nonreversible_three_state_system()
    matrix = nonreversible_three_state().matrix
    diag = recover_diagonalisation(gs, matrix)
    assert np.allclose(np.sort(diag.eigenvalues), [-6.0, -3.0, 0.0], atol=1e-9)
    assert (np.linalg.norm(diag.reconstruct() - matrix)
            <= 1e-9 * np.linalg.norm(matrix))


def test_recover_roundtrips_random_systems(rng):
    for _ in range(15):
        dim = int(rng.integers(2, 11))
        planted = make_diagonalisation(rng, dim,
                                       cond=10.0 ** rng.uniform(0.0, 2.5),
                                       min_gap=0.02)
        matrix = planted.reconstruct()
        recovered = recover_diagonalisation(synthesize_canonical(planted), matrix)
        assert np.allclose(np.sort(recovered.eigenvalues),
                           np.sort(planted.eigenvalues), atol=1e-7)
        assert (np.linalg.norm(recovered.reconstruct() - matrix)
                <= 1e-8 * np.linalg.norm(matrix))


@pytest.mark.parametrize("dim", [6, 20])
@pytest.mark.parametrize("sup", [-0.5, 1.0])
def test_library_round_trip_up_to_cond_1e4(dim, sup):
    """``recover(synthesize(real_diagonalise(A)), A)`` succeeds for cond(T) up
    to 1e4, a factor 3 below the conditioning limit ``tol**-0.5``."""
    eigenvalues = np.linspace(sup - 4.5, sup, dim)
    for cond in (1.0, 1e2, 1e3, 1e4):
        transform = make_transform(np.random.default_rng(dim), dim, cond)
        matrix = Diagonalisation(transform, eigenvalues).reconstruct()
        recovered = recover_diagonalisation(
            synthesize_canonical(real_diagonalise(matrix)), matrix)
        np.testing.assert_allclose(np.sort(recovered.eigenvalues), eigenvalues,
                                   rtol=0.0, atol=1e-8)
        assert recovered.residual <= 1e-8 * np.linalg.norm(matrix), cond


def test_recover_rejects_mismatched_matrix():
    gs = nonreversible_three_state_system()
    wrong = nonreversible_three_state().matrix.copy()
    wrong[0, 0] += 1e-3
    with pytest.raises(FlowMismatchError):
        recover_diagonalisation(gs, wrong)


def test_recover_flags_inconsistent_inputs():
    # The perturbation passes the flow-identity gate (it is small against the
    # large entries) but the square-root conjugation amplifies its asymmetry.
    gs = CanonicalGradientSystem(np.diag([1.0, 1e8]), np.eye(2), np.zeros(2))
    matrix = np.array([[-1.0, 0.05], [0.0, -1e8]])
    with pytest.raises(AsymmetryDefectError):
        recover_diagonalisation(gs, matrix)


def test_linearise_linear_probe_is_exact():
    mobility = np.array([[2.0, 0.5], [0.5, 1.0]])
    curvature = np.array([[1.0, -0.3], [-0.3, 2.0]])
    pivot = np.array([0.4, -0.2])
    probe = GeneralisedSystemProbe(
        pivot,
        energy_grad=lambda x: curvature @ (np.asarray(x) - pivot),
        dissipation_grad=lambda x, force: mobility @ np.asarray(force))
    lin = linearise_generalised(probe)
    assert np.allclose(lin.onsager, mobility, atol=1e-9)
    assert np.allclose(lin.hessian, curvature, atol=1e-9)
    assert np.array_equal(lin.equilibrium, pivot)


def test_linearise_finite_difference_error_is_second_order():
    """Quartic terms leave an O(step^2) defect that shrinks ~4x per halving."""
    curvature = np.diag([1.0, 2.0])
    probe = GeneralisedSystemProbe(
        np.zeros(2),
        energy_grad=lambda x: curvature @ np.asarray(x) + 0.3 * np.asarray(x) ** 3,
        dissipation_grad=lambda x, force: np.asarray(force) + 0.3 * np.asarray(force) ** 3)
    defects = []
    for step in (1e-3, 5e-4):
        lin = linearise_generalised(probe, step=step)
        defects.append(np.linalg.norm(lin.hessian - curvature))
    assert 3.0 <= defects[0] / defects[1] <= 5.0


@pytest.mark.parametrize("k", [0, -20, -40])
def test_linearise_default_step_follows_the_equilibrium_scale(k):
    """An entropy-like gradient ``log(x / eq)`` at ``eq = 2**k (1, 2)``: the
    default step scales with ``eq``, so it neither leaves the positive
    orthant nor loses the curvature ``diag(1 / eq)`` as ``eq`` shrinks."""
    eq = np.ldexp(np.array([1.0, 2.0]), k)
    probe = GeneralisedSystemProbe(
        eq,
        energy_grad=lambda x: np.log(np.asarray(x) / eq),
        dissipation_grad=lambda x, force: np.asarray(x) * np.asarray(force))
    lin = linearise_generalised(probe)
    assert np.allclose(lin.hessian * eq, np.eye(2), rtol=0.0, atol=1e-9)
    assert np.allclose(lin.onsager / eq, np.eye(2), rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("k", [0, -40])
def test_probe_shift_follows_the_equilibrium_scale(k):
    """An exclusion mobility ``x (c - x) / c``, defined only for ``0 < x < c``, at
    ``c = 2**k`` and ``eq = c (1/4, 1/2)``: the probe's shifted point scales
    with ``eq``, so it stays in the domain as ``eq`` shrinks."""
    cap = np.ldexp(1.0, k)
    eq = cap * np.array([0.25, 0.5])

    def dissipation_grad(x, force):
        if not np.all((x > 0.0) & (x < cap)):
            raise ValueError("occupation outside (0, c)")
        return x * (cap - x) / cap * np.asarray(force)

    probe = GeneralisedSystemProbe(eq, energy_grad=lambda x: (x - eq) / cap,
                                   dissipation_grad=dissipation_grad)
    lin = linearise_generalised(probe)
    assert np.allclose(lin.onsager, np.diag(eq * (cap - eq) / cap), rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("k", [0, -40])
def test_probe_refuses_a_rest_velocity_at_every_scale(k):
    """Zero force drifts every state by ``1e-3 eq`` per unit time, ``eq = 2**k (1, 2)``:
    a rest velocity of 1e-3 relative to ``eq``, refused at every scale."""
    eq = np.ldexp(np.array([1.0, 2.0]), k)
    with pytest.raises(ValueError, match="must vanish at zero force"):
        GeneralisedSystemProbe(
            eq, energy_grad=lambda x: np.asarray(x, dtype=float),
            dissipation_grad=lambda x, force: np.asarray(force) + 1e-3 * eq)


@pytest.mark.parametrize("k", [0, -40])
def test_linearise_refuses_an_equilibrium_off_by_a_relative_1e_3(k):
    """The energy is critical at ``0.999 eq``, not at ``eq = 2**k (1, 2)``: the
    velocity there is ``1e-3 eq``, refused at every scale of ``eq``."""
    eq = np.ldexp(np.array([1.0, 2.0]), k)
    probe = GeneralisedSystemProbe(
        eq,
        energy_grad=lambda x: np.asarray(x) - 0.999 * eq,
        dissipation_grad=lambda x, force: np.asarray(force, dtype=float))
    with pytest.raises(NotCriticalError):
        linearise_generalised(probe)


def test_linearise_rejects_non_equilibrium():
    probe = GeneralisedSystemProbe(
        np.array([1.0, 0.0]),
        energy_grad=lambda x: np.asarray(x, dtype=float),
        dissipation_grad=lambda x, force: np.asarray(force, dtype=float))
    with pytest.raises(NotCriticalError):
        linearise_generalised(probe)


def test_linearise_rejects_indefinite_mobility():
    # diag(1, -1e-7) has relative eigenvalue -1e-7, inside the 1e-6 that
    # linearise once applied to the mobility itself, so it passed that check
    # and then failed the system's with a bare ValueError.  The central
    # differences of a linear dissipation gradient give back its matrix.
    for mobility in (np.diag([1.0, -1.0]), np.diag([1.0, -1e-7])):
        probe = GeneralisedSystemProbe(
            np.zeros(2),
            energy_grad=lambda x: np.asarray(x, dtype=float),
            dissipation_grad=lambda x, force, m=mobility: m @ np.asarray(force))
        with pytest.raises(NotSPDError):
            linearise_generalised(probe)


@pytest.mark.parametrize("call, expected", [
    (lambda: symmetric_sqrt(np.diag([4.0, 9.0])), {"eigh": 1}),
    (lambda: linearise_generalised(GeneralisedSystemProbe(
        np.zeros(2),
        energy_grad=lambda x: np.asarray(x, dtype=float),
        dissipation_grad=lambda x, force: np.asarray(force, dtype=float))),
     {"eigvalsh": 1}),
], ids=["symmetric_sqrt", "linearise_generalised"])
def test_spd_checks_factorise_once(linalg_counts, call, expected):
    """The square root reuses the eigh of its SPD test; linearisation leaves
    the semi-definiteness check to :class:`CanonicalGradientSystem`."""
    call()
    assert dict(linalg_counts) == expected


def test_linearise_constant_energy_probe():
    probe = GeneralisedSystemProbe(
        np.zeros(2),
        energy_grad=lambda x: np.zeros(2),
        dissipation_grad=lambda x, force: np.asarray(force, dtype=float))
    lin = linearise_generalised(probe)
    assert np.allclose(lin.hessian, 0.0, atol=1e-12)


def test_probe_rejects_nonvanishing_rest_velocity():
    with pytest.raises(ValueError):
        GeneralisedSystemProbe(
            np.zeros(2),
            energy_grad=lambda x: np.asarray(x, dtype=float),
            dissipation_grad=lambda x, force: np.asarray(force) + 1.0)


def test_probe_dimension_is_the_equilibrium_size():
    assert _linear_probe(3).dim == 3


def _linear_probe(dim=2):
    return GeneralisedSystemProbe(
        np.zeros(dim),
        energy_grad=lambda x: np.asarray(x, dtype=float),
        dissipation_grad=lambda x, force: np.asarray(force, dtype=float))


@pytest.mark.parametrize("call, message", [
    (lambda: CanonicalGradientSystem(np.eye(2), np.eye(3), np.zeros(2)),
     "onsager and hessian dimensions disagree"),
    (lambda: _linear_probe(0), "equilibrium must be non-empty"),
    (lambda: linearise_generalised(_linear_probe(), step=0.0), "step must be positive"),
    (lambda: verify_flow_identity(np.eye(2), nonreversible_three_state_system()),
     "matrix dimension does not match the system"),
], ids=["system-sizes-disagree", "probe-dim-0", "linearise-step-0", "flow-identity-size"])
def test_constructions_refuse_inconsistent_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_flow_identity_of_a_zero_matrix_is_relative_to_nothing():
    """``a = 0`` has no norm to divide by: a zero defect reads 0, any other 1."""
    for hessian, residual in ((np.zeros((2, 2)), 0.0), (np.eye(2), 1.0)):
        gs = CanonicalGradientSystem(np.eye(2), hessian, np.zeros(2))
        assert verify_flow_identity(np.zeros((2, 2)), gs).max_residual == residual


def test_flow_identity_report_scales_with_perturbation():
    matrix = nonreversible_three_state().matrix
    gs = nonreversible_three_state_system()
    assert verify_flow_identity(matrix, gs).max_residual <= 1e-12
    bumped = matrix.copy()
    bumped[0, 1] += 1e-3
    residual = verify_flow_identity(bumped, gs).max_residual
    assert residual == pytest.approx(1e-3 / np.linalg.norm(bumped), rel=1e-3)
    assert residual > 1e-9


def test_system_constructor_validates():
    with pytest.raises(ValueError):
        CanonicalGradientSystem(np.diag([1.0, -1.0]), np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        CanonicalGradientSystem(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]),
                                np.zeros(2))
    with pytest.raises(ValueError):
        CanonicalGradientSystem(np.eye(2), np.eye(2), np.zeros(3))
