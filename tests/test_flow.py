"""Integrator tests: exact propagator, RK4, minimizing movement, dissipation."""

import numpy as np
import pytest

from gradflow import (
    CanonicalGradientSystem,
    Diagonalisation,
    Integrator,
    Trajectory,
    dissipation_audit,
    exact_flow,
    exact_trajectory,
    metric_distance,
    minimizing_movement_flow,
    nonreversible_three_state,
    real_diagonalise,
    reversible_three_state,
    rk4_flow,
    synthesize_canonical,
)
from gradflow.errors import (
    FlowOverflowError,
    NonFiniteStateError,
    SingularStepError,
)

from conftest import blowup_diagonalisation, make_diagonalisation, make_transform


def _three_state_setup():
    matrix = nonreversible_three_state().matrix
    diag = real_diagonalise(matrix)
    gs = synthesize_canonical(diag)
    return matrix, diag, gs


def test_exact_flow_at_time_zero(rng):
    diag = make_diagonalisation(rng, 4)
    x0 = rng.standard_normal(4)
    assert np.allclose(exact_flow(diag, x0, 0.0), x0, atol=1e-14)


def test_exact_flow_decoupled_decay():
    diag = Diagonalisation(np.eye(2), np.array([-1.0, 0.0]))
    out = exact_flow(diag, [1.0, 1.0], np.log(2.0))
    assert np.allclose(out, [0.5, 1.0])


def test_exact_flow_reaches_uniform_distribution():
    diag = real_diagonalise(reversible_three_state().matrix)
    out = exact_flow(diag, [1.0, 0.0, 0.0], 60.0)
    assert np.allclose(out, 1.0 / 3.0, atol=1e-12)


def test_exact_flow_overflow_guard():
    diag = Diagonalisation(np.eye(1), np.array([1.0]))
    with pytest.raises(FlowOverflowError):
        exact_flow(diag, [1.0], 800.0)
    # decaying modes underflow gracefully instead
    decaying = Diagonalisation(np.eye(1), np.array([-1.0]))
    assert exact_flow(decaying, [1.0], 800.0)[0] == 0.0


@pytest.mark.parametrize("x0", [[0.0, 1.0], [0.0, 0.0]])
def test_exact_flow_skips_the_exponent_of_a_mode_the_start_leaves_at_zero(x0):
    """``t w = 800`` is past the exp range, but a start with no component in
    that mode keeps it at exactly 0; only an excited mode is refused."""
    diag = Diagonalisation(np.eye(2), np.array([1.0, -1.0]))
    assert np.array_equal(exact_flow(diag, x0, 800.0), [0.0, 0.0])
    assert np.array_equal(exact_flow(diag, [x0, [0.0, 2.0]], 800.0), np.zeros((2, 2)))
    traj = exact_trajectory(diag, x0, 800.0, nodes=5)
    assert np.array_equal(traj.states[:, 0], np.zeros(5))
    assert np.array_equal(traj.states[:, 1], x0[1] * np.exp(-traj.times))
    with pytest.raises(FlowOverflowError):
        exact_flow(diag, [x0, [1e-300, 0.0]], 800.0)
    with pytest.raises(FlowOverflowError):
        exact_trajectory(diag, [1e-300, x0[1]], 800.0, nodes=5)


def test_exact_flow_negative_time_inverts(rng):
    diag = make_diagonalisation(rng, 3, cond=5.0)
    x0 = rng.standard_normal(3)
    there = exact_flow(diag, x0, 0.7)
    assert np.allclose(exact_flow(diag, there, -0.7), x0, atol=1e-10)


def test_exact_flow_semigroup_property(rng):
    diag = make_diagonalisation(rng, 4, cond=20.0)
    x0 = rng.standard_normal(4)
    for _ in range(10):
        t, s = rng.uniform(0.0, 1.5, size=2)
        joint = exact_flow(diag, x0, t + s)
        stepped = exact_flow(diag, exact_flow(diag, x0, s), t)
        assert np.allclose(joint, stepped, atol=1e-9 * (1.0 + np.linalg.norm(joint)))


def test_exact_flow_batches_rows(rng):
    diag = make_diagonalisation(rng, 3)
    batch = rng.standard_normal((5, 3))
    together = exact_flow(diag, batch, 0.4)
    for row, x0 in zip(together, batch):
        assert np.allclose(row, exact_flow(diag, x0, 0.4), atol=1e-13)


@pytest.mark.parametrize("call, message", [
    (lambda diag: exact_flow(diag, [1.0, 0.0], 1.0), "of dimension 3"),
    (lambda diag: exact_flow(diag, [np.nan, 0.0, 0.0], 1.0), "must be finite"),
    (lambda diag: exact_flow(diag, [[1.0, 0.0, np.inf]], 1.0), "must be finite"),
    (lambda diag: exact_trajectory(diag, [1.0, 0.0, 0.0], -1.0), "t_end must be non-negative"),
    (lambda diag: exact_trajectory(diag, [1.0, 0.0, 0.0], 1.0, nodes=0), "at least one node"),
], ids=["flow-wrong-dimension", "flow-nan-start", "flow-inf-row", "trajectory-negative-t",
        "trajectory-no-nodes"])
def test_exact_routes_refuse_bad_arguments(call, message):
    diag = Diagonalisation(np.eye(3), np.array([-1.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match=message):
        call(diag)


def test_exact_trajectory_shape_and_start(rng):
    diag = make_diagonalisation(rng, 3)
    x0 = rng.standard_normal(3)
    traj = exact_trajectory(diag, x0, 2.0, nodes=50)
    assert traj.method is Integrator.EXACT
    assert traj.times.size == 50 and traj.times[-1] == 2.0
    assert np.array_equal(traj.states[0], x0)
    # zero horizon collapses to the single initial node
    flat = exact_trajectory(diag, x0, 0.0)
    assert flat.times.size == 1 and np.array_equal(flat.states[0], x0)


def test_rk4_zero_matrix_is_constant():
    traj = rk4_flow(np.zeros((2, 2)), [1.0, -2.0], 1.0, 0.1)
    assert np.allclose(traj.states, [1.0, -2.0])


def test_rk4_scalar_exponential_accuracy():
    traj = rk4_flow(np.array([[-1.0]]), [1.0], 1.0, 0.1)
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-6


def test_rk4_fourth_order_convergence():
    matrix, diag, _ = _three_state_setup()
    x0 = np.array([0.6, 0.3, 0.1])
    target = exact_flow(diag, x0, 1.0)
    coarse = np.linalg.norm(rk4_flow(matrix, x0, 1.0, 0.05).states[-1] - target)
    fine = np.linalg.norm(rk4_flow(matrix, x0, 1.0, 0.025).states[-1] - target)
    assert 10.0 < coarse / fine < 25.0


def test_rk4_remainder_step_lands_on_horizon():
    traj = rk4_flow(np.array([[-1.0]]), [1.0], 0.25, 0.1)
    assert np.allclose(traj.times, [0.0, 0.1, 0.2, 0.25])
    assert traj.states[-1, 0] == pytest.approx(np.exp(-0.25), abs=1e-6)


def test_rk4_warns_on_coarse_step():
    with pytest.warns(RuntimeWarning):
        rk4_flow(np.array([[-3.0]]), [1.0], 2.0, 0.5)


def test_rk4_detects_blowup():
    with pytest.raises(NonFiniteStateError):
        with pytest.warns(RuntimeWarning):
            rk4_flow(np.array([[-1e9]]), [1.0], 20.0, 1.0)


def test_every_integrator_raises_non_finite_state_at_its_first_bad_node():
    diag, x0 = blowup_diagonalisation()
    with pytest.raises(NonFiniteStateError, match=r"non-finite at t = 1$"):
        exact_trajectory(diag, x0, 1.0, nodes=3)
    with pytest.raises(NonFiniteStateError, match=r"non-finite at t = 0\.999$"):
        rk4_flow(diag.reconstruct(), x0, 1.0, 1e-3)
    with pytest.raises(NonFiniteStateError, match=r"non-finite at t = 0\.58$"):
        minimizing_movement_flow(diag, x0, 1.0, 1e-3)


def test_rk4_rejects_bad_step():
    with pytest.raises(ValueError):
        rk4_flow(np.eye(2), [1.0, 1.0], 1.0, 0.0)
    with pytest.raises(ValueError):
        rk4_flow(np.eye(2), [1.0, 1.0], 0.5, 1.0)


def test_minimizing_movement_without_force_is_constant():
    diag = Diagonalisation(np.eye(2), np.zeros(2))
    traj = minimizing_movement_flow(diag, [0.3, -0.7], 1.0, 0.1)
    assert np.allclose(traj.states, [0.3, -0.7])


def test_minimizing_movement_scalar_resolvent():
    # unit mobility and curvature (w = -1): each step divides by (1 + tau)
    diag = Diagonalisation(np.eye(1), [-1.0])
    tau = 0.25
    traj = minimizing_movement_flow(diag, [1.0], 1.0, tau)
    expected = (1.0 + tau) ** -np.arange(traj.times.size)
    assert np.allclose(traj.states[:, 0], expected, rtol=1e-12)


def test_minimizing_movement_first_order_convergence():
    _, diag, _ = _three_state_setup()
    x0 = np.array([0.6, 0.3, 0.1])
    target = exact_flow(diag, x0, 1.0)
    coarse = np.linalg.norm(
        minimizing_movement_flow(diag, x0, 1.0, 0.02).states[-1] - target)
    fine = np.linalg.norm(
        minimizing_movement_flow(diag, x0, 1.0, 0.01).states[-1] - target)
    assert 1.8 <= coarse / fine <= 2.2


def test_minimizing_movement_one_step_variational_inequality(rng):
    _, diag, gs = _three_state_setup()
    x0 = rng.standard_normal(3)
    tau = 0.05
    traj = minimizing_movement_flow(diag, x0, 1.0, tau)
    energies = np.atleast_1d(gs.energy(traj.states))
    scale = max(1.0, np.max(np.abs(energies)))
    for k in range(traj.times.size - 1):
        moved = metric_distance(diag, traj.states[k + 1], traj.states[k])
        assert (energies[k + 1] + moved ** 2 / (2.0 * tau)
                <= energies[k] + 1e-12 * scale)


def test_minimizing_movement_singular_step():
    # negative curvature direction (w = 2): the step matrix loses definiteness at tau = 1/2
    diag = Diagonalisation(np.eye(1), [2.0])
    with pytest.raises(SingularStepError):
        minimizing_movement_flow(diag, [1.0], 2.0, 1.0)
    # below the threshold the scheme runs
    traj = minimizing_movement_flow(diag, [1.0], 1.0, 0.25)
    assert np.all(np.isfinite(traj.states))


def test_minimizing_movement_singular_step_boundary():
    # 1 - tau * max(w) = 0 exactly at tau = 1/2; one ulp below, the step is definite
    diag = Diagonalisation(np.eye(1), [2.0])
    with pytest.raises(SingularStepError):
        minimizing_movement_flow(diag, [1.0], 0.5, 0.5)
    tau = np.nextafter(0.5, 0.0)
    traj = minimizing_movement_flow(diag, [1.0], tau, tau)
    assert traj.states[-1, 0] == 1.0 / (1.0 - 2.0 * tau)


@pytest.mark.parametrize("pair", ["hand-written", "random"])
def test_minimizing_movement_matches_step_by_step_solves(rng, pair):
    """The modal closed form equals the JKO steps ``(T'T + h B) x+ = T'T x``
    with the canonical hessian ``B = -T' diag(w) T`` of ``diag``.

    The hand-written case is the non-reversible chain (d = 3); the random
    ones are planted at d = 1, 12 and 50, with spectra of both signs.  Every
    ``t_end`` leaves a shorter last step."""
    if pair == "hand-written":
        cases = [(real_diagonalise(nonreversible_three_state().matrix), 0.3)]
    else:
        # 1 - 0.3 w > 0 for every w in [-2, 1.2]
        cases = [(Diagonalisation(make_transform(rng, dim, cond=4.0),
                                  rng.uniform(-2.0, 1.2, dim)), 0.3)
                 for dim in (1, 12, 50)]
    for diag, tau in cases:
        x0 = rng.standard_normal(diag.dim)
        traj = minimizing_movement_flow(diag, x0, 1.0, tau)
        assert traj.times.size == 5 and traj.times[-1] == 1.0
        g = diag.transform.T @ diag.transform
        hessian = synthesize_canonical(diag).hessian
        x, reference = x0, [x0]
        for h in np.diff(traj.times):
            x = np.linalg.solve(g + h * hessian, g @ x)
            reference.append(x)
        np.testing.assert_allclose(traj.states, reference, rtol=1e-12, atol=1e-14)


def test_equilibrium_is_fixed_for_all_integrators():
    matrix, diag, gs = _three_state_setup()
    uniform = np.full(3, 1.0 / 3.0)  # kernel vector of the generator
    assert np.allclose(exact_flow(diag, uniform, 5.0), uniform, atol=1e-12)
    assert np.allclose(rk4_flow(matrix, uniform, 1.0, 0.05).states[-1],
                       uniform, atol=1e-12)
    assert np.allclose(
        minimizing_movement_flow(diag, uniform, 1.0, 0.05).states[-1],
        uniform, atol=1e-10)


def _planted_dense(rng):
    """d = 50 system with cond(T) = 100 and a start, for closed forms."""
    diag = make_diagonalisation(rng, 50, cond=100.0)
    return diag, synthesize_canonical(diag), rng.standard_normal(50)


def _modal_states(diag, x0, factors):
    """Rows ``inv(T) diag(factors[k]) T x0``: the closed form of a modal iteration."""
    return np.linalg.solve(diag.transform, (factors * (diag.transform @ x0)).T).T


def _worst_relative_error(states, reference):
    return float(np.max(np.linalg.norm(states - reference, axis=1)
                        / np.linalg.norm(reference, axis=1)))


def test_minimizing_movement_matches_resolvent_closed_form(rng):
    diag, _, x0 = _planted_dense(rng)
    tau = 2.0 ** -6
    traj = minimizing_movement_flow(diag, x0, 0.5, tau)
    steps = np.arange(traj.times.size, dtype=float)[:, None]
    reference = _modal_states(diag, x0, (1.0 - tau * diag.eigenvalues) ** -steps)
    assert _worst_relative_error(traj.states, reference) < 5e-13


def test_rk4_matches_polynomial_closed_form(rng):
    diag, gs, x0 = _planted_dense(rng)
    h = 2.0 ** -9
    traj = rk4_flow(gs.flow_matrix(), x0, 0.25, h)
    z = h * diag.eigenvalues
    poly = 1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0
    steps = np.arange(traj.times.size, dtype=float)[:, None]
    reference = _modal_states(diag, x0, poly ** steps)
    assert _worst_relative_error(traj.states, reference) < 1e-12


def test_minimizing_movement_ends_at_horizon_with_shorter_step():
    _, diag, _ = _three_state_setup()
    x0 = np.array([1.0, 0.0, 0.0])
    traj = minimizing_movement_flow(diag, x0, 1.0, 0.3)
    assert traj.times[-1] == 1.0 and traj.times.size == 5
    w = diag.eigenvalues
    remainder = 1.0 - 3 * 0.3  # 0.1 up to rounding
    factors = (1.0 - 0.3 * w) ** -3 * (1.0 - remainder * w) ** -1
    expected = _modal_states(diag, x0, factors[None, :])[0]
    assert np.allclose(traj.states[-1], expected, rtol=1e-12, atol=1e-14)


def test_batched_energy_matches_single_rows(rng):
    _, gs, _ = _planted_dense(rng)
    batch = rng.standard_normal((40, 50))
    single = np.array([gs.energy(row) for row in batch])
    np.testing.assert_allclose(gs.energy(batch), single, rtol=1e-13, atol=0.0)
    assert gs.energy(batch.reshape(8, 5, 50)).shape == (8, 5)


def test_dissipation_audit_constant_at_equilibrium():
    _, diag, gs = _three_state_setup()
    traj = exact_trajectory(diag, np.full(3, 1.0 / 3.0), 2.0, nodes=100)
    audit = dissipation_audit(gs, traj)
    assert audit.monotone
    assert audit.dissipation_defect <= 1e-10
    assert np.allclose(audit.energies, audit.energies[0], atol=1e-12)


def test_dissipation_audit_monotone_with_vanishing_defect(rng):
    _, diag, gs = _three_state_setup()
    for _ in range(5):
        x0 = rng.standard_normal(3)
        coarse = dissipation_audit(gs, exact_trajectory(diag, x0, 1.0, nodes=200))
        fine = dissipation_audit(gs, exact_trajectory(diag, x0, 1.0, nodes=399))
        assert coarse.monotone and fine.monotone
        # node spacing halves: the central-difference defect drops ~4x
        assert 2.0 <= coarse.dissipation_defect / fine.dissipation_defect <= 10.0
        scale = max(1.0, float(np.max(np.abs(fine.energies))))
        assert fine.dissipation_defect <= 0.05 * scale


def test_dissipation_decreases_even_on_expansive_mode():
    # growing mode, negative-definite energy along it: decay still holds
    diag = Diagonalisation(np.eye(1), np.array([1.0]))
    gs = synthesize_canonical(diag)
    traj = exact_trajectory(diag, np.array([1.0]), 2.0, nodes=100)
    audit = dissipation_audit(gs, traj)
    assert audit.monotone
    assert audit.energies[-1] < audit.energies[0]


@pytest.mark.parametrize("k", [0, -40])
def test_dissipation_audit_flags_a_rising_energy_at_any_scale(k):
    # E = 2**k x**2 rises 9x; an absolute floor of 1 hid the rise at k = -40
    gs = CanonicalGradientSystem(np.eye(1), np.ldexp(np.array([[2.0]]), k), np.zeros(1))
    traj = Trajectory(np.array([0.0, 1.0]), np.array([[1.0 / 3.0], [1.0]]), Integrator.EXACT)
    audit = dissipation_audit(gs, traj)
    assert audit.energies[1] == pytest.approx(9.0 * audit.energies[0])
    assert not audit.monotone


def test_rk4_trajectory_feeds_the_audit(rng):
    matrix, diag, gs = _three_state_setup()
    traj = rk4_flow(matrix, rng.standard_normal(3), 1.0, 0.01)
    audit = dissipation_audit(gs, traj)
    assert audit.monotone


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 2)), Integrator.EXACT)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.5, 1.0]), np.zeros((2, 2)), Integrator.EXACT)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 2)), Integrator.EXACT)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            Trajectory(np.array([0.0, bad]), np.zeros((2, 1)), Integrator.EXACT)
    # the one finiteness check of every integrator names the first bad node
    with pytest.raises(NonFiniteStateError, match=r"non-finite at t = 0\.5$"):
        Trajectory(np.array([0.0, 0.5, 1.0]), np.array([[1.0], [np.inf], [np.nan]]),
                   Integrator.EXACT)
