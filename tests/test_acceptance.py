"""Acceptance gate: every criterion at its stated tolerance.

Run ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.  Criteria over randomized batches share one seeded family of 100
systems (dimension up to 20, transform condition number up to 1e3).
"""

import time

import numpy as np
import pytest

import gradflow as gf

from conftest import make_transform


def _line(num, ok, text):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {text}")


@pytest.fixture(scope="module")
def random_systems():
    rng = np.random.default_rng(7)
    systems = []
    for _ in range(100):
        dim = int(rng.integers(2, 21))
        cond = 10.0 ** rng.uniform(0.0, 3.0)
        transform = make_transform(rng, dim, cond)
        while True:
            eigenvalues = np.sort(rng.uniform(-5.0, 0.5, size=dim))
            if np.min(np.diff(eigenvalues)) >= 0.02:
                break
        planted = gf.Diagonalisation(transform, eigenvalues)
        systems.append((planted.reconstruct(), eigenvalues))
    return systems


@pytest.fixture(scope="module")
def synthesized(random_systems):
    out = []
    for matrix, planted in random_systems:
        diag = gf.real_diagonalise(matrix)
        out.append((matrix, planted, diag, gf.synthesize_canonical(diag)))
    return out


def test_criterion_01_entropic_flow_identity():
    gen = gf.reversible_three_state()
    structure = gf.EntropicStructure.from_generator(gen)
    start = time.perf_counter()
    report = gf.verify_entropic_flow(gen, structure, samples=1000, seed=0)
    elapsed = time.perf_counter() - start
    ok = report.max_residual <= 1e-9 and elapsed < 1.0
    _line(1, ok, f"reversible chain residual {report.max_residual:.3e} over "
                 f"{report.num_samples} interior points in {elapsed:.2f}s")
    assert report.max_residual <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_verbatim_nonreversible_pair():
    start = time.perf_counter()
    gen = gf.nonreversible_three_state()
    gs = gf.nonreversible_three_state_system()
    residual = gf.verify_flow_identity(gen.matrix, gs).max_residual
    spd = gf.is_spd(gs.onsager)
    reversible = gf.is_reversible(gen, gf.stationary_distribution(gen))
    elapsed = time.perf_counter() - start
    ok = residual <= 1e-12 and spd and not reversible and elapsed < 0.1
    _line(2, ok, f"residual {residual:.3e}, onsager SPD {spd}, "
                 f"reversible {reversible}, in {elapsed:.3f}s")
    assert residual <= 1e-12
    assert spd and not reversible
    assert elapsed < 0.1


def test_criterion_03_forward_construction(random_systems):
    start = time.perf_counter()
    worst = 0.0
    for matrix, _ in random_systems:
        diag = gf.real_diagonalise(matrix)
        gs = gf.synthesize_canonical(diag)
        worst = max(worst, gf.verify_flow_identity(matrix, gs).max_residual)
        assert gf.is_spd(gs.onsager)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _line(3, ok, f"100 systems, worst flow residual {worst:.3e} in {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_04_converse_recovery(synthesized):
    start = time.perf_counter()
    worst_eig = 0.0
    worst_rec = 0.0
    for matrix, planted, _, gs in synthesized:
        recovered = gf.recover_diagonalisation(gs, matrix)
        worst_eig = max(worst_eig, float(np.max(np.abs(
            np.sort(recovered.eigenvalues) - np.sort(planted)))))
        worst_rec = max(worst_rec,
                        float(np.linalg.norm(recovered.reconstruct() - matrix)
                              / np.linalg.norm(matrix)))
    elapsed = time.perf_counter() - start
    ok = worst_eig <= 1e-6 and worst_rec <= 1e-8 and elapsed < 5.0
    _line(4, ok, f"worst eigenvalue error {worst_eig:.3e}, worst "
                 f"reconstruction {worst_rec:.3e} in {elapsed:.2f}s")
    assert worst_eig <= 1e-6
    assert worst_rec <= 1e-8
    assert elapsed < 5.0


def test_criterion_05_rejection_completeness():
    kinds = {}
    for name, matrix in (("jordan", np.array([[0.0, 1.0], [0.0, 0.0]])),
                         ("rotation", np.array([[0.0, -1.0], [1.0, 0.0]]))):
        with pytest.raises(gf.errors.NotDiagonalisableError) as info:
            gf.real_diagonalise(matrix)
        kinds[name] = info.value.report.failure_kind
    ok = (kinds["jordan"] is gf.FailureKind.DEFECTIVE
          and kinds["rotation"] is gf.FailureKind.COMPLEX_SPECTRUM)
    _line(5, ok, f"jordan -> {kinds['jordan'].value}, "
                 f"rotation -> {kinds['rotation'].value}")
    assert ok


def test_criterion_06_linearisation_of_entropic_probe():
    gen = gf.reversible_three_state()
    structure = gf.EntropicStructure.from_generator(gen)
    lin = gf.linearise_generalised(gf.entropic_probe(structure), step=1e-5)
    mobility_at_pi = gf.entropic_onsager(structure, structure.stationary)
    defect = float(np.linalg.norm(gen.matrix + lin.onsager @ lin.hessian))
    ok = (np.allclose(lin.onsager, mobility_at_pi, atol=1e-9)
          and np.allclose(lin.hessian, 3.0 * np.eye(3), atol=1e-6)
          and defect <= 1e-6)
    _line(6, ok, f"finite-difference linearisation defect {defect:.3e}")
    assert np.allclose(lin.onsager, mobility_at_pi, atol=1e-9)
    assert np.allclose(lin.hessian, 3.0 * np.eye(3), atol=1e-6)
    assert defect <= 1e-6


def test_criterion_07_modulus_agreement_both_regimes(synthesized):
    worst = 0.0
    for _, _, diag, _ in synthesized:
        for branch in ("negative", "positive"):
            if branch == "negative":
                shifted = diag.eigenvalues - np.max(diag.eigenvalues) - 1.0
            else:
                shifted = diag.eigenvalues - np.min(diag.eigenvalues) + 1.0
            moved = gf.Diagonalisation(diag.transform, shifted)
            constants = gf.convexity_constants(moved)
            t_norm = np.linalg.norm(moved.transform, 2)
            inv_norm = np.linalg.norm(np.linalg.inv(moved.transform), 2)
            if constants.flat_lambda > 0.0:
                composed = constants.flat_lambda / t_norm ** 2
            else:
                composed = constants.flat_lambda * inv_norm ** 2
            worst = max(worst, abs(composed - constants.geodesic_lambda)
                        / abs(constants.geodesic_lambda))
    ok = worst <= 1e-10
    _line(7, ok, f"direct vs two-step modulus, worst relative gap {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_08_geodesic_convexity(synthesized):
    worst = 0.0
    for i, (_, _, diag, gs) in enumerate(synthesized):
        lam = gf.convexity_constants(diag).geodesic_lambda
        defect = gf.check_geodesic_convexity(gs, diag, lam, samples=1000,
                                             seed=1000 + i)
        scale = 4.0 * (np.linalg.norm(gs.hessian, 2)
                       + abs(lam) * diag.transform_norm ** 2)
        worst = max(worst, defect / (1e-9 * scale))
    ok = worst <= 1.0
    _line(8, ok, f"1000 pairs per system, every theta in [0, 1], worst defect at "
                 f"{worst:.3e} of the 1e-9 scale budget")
    assert worst <= 1.0


def test_criterion_09_contraction(synthesized):
    worst = 0.0
    for i, (_, _, diag, _) in enumerate(synthesized):
        lam = gf.convexity_constants(diag).geodesic_lambda
        defect = gf.check_contraction(diag, lam, pairs=100,
                                      times=(0.1, 1.0, 10.0), seed=2000 + i)
        scale = 300.0 * diag.transform_norm  # distance magnitude ceiling
        worst = max(worst, defect / (1e-9 * scale))
    markov_ok = True
    for factory in (gf.reversible_three_state, gf.nonreversible_three_state):
        diag = gf.real_diagonalise(factory().matrix)
        # zero spectrum maximum forces a zero modulus: distances non-increasing
        defect = gf.check_contraction(diag, 0.0, pairs=200,
                                      times=(0.1, 1.0, 10.0), seed=9)
        markov_ok = markov_ok and defect <= 1e-9 * diag.transform_norm
    ok = worst <= 1.0 and markov_ok
    _line(9, ok, f"worst defect at {worst:.3e} of budget; generator flows "
                 f"non-expansive: {markov_ok}")
    assert worst <= 1.0
    assert markov_ok


def test_criterion_10_integrator_orders():
    matrix = gf.nonreversible_three_state().matrix
    diag = gf.real_diagonalise(matrix)
    gs = gf.synthesize_canonical(diag)
    x0 = np.array([0.6, 0.3, 0.1])
    target = gf.exact_flow(diag, x0, 1.0)
    rk4_errors = [np.linalg.norm(gf.rk4_flow(matrix, x0, 1.0, h).states[-1]
                                 - target) for h in (0.025, 0.0125)]
    rk4_ratio = rk4_errors[0] / rk4_errors[1]
    mm_errors = [np.linalg.norm(
        gf.minimizing_movement_flow(gs, diag, x0, 1.0, tau).states[-1] - target)
        for tau in (0.02, 0.01)]
    mm_ratio = mm_errors[0] / mm_errors[1]
    ok = 11.0 <= rk4_ratio <= 21.0 and 1.8 <= mm_ratio <= 2.2
    _line(10, ok, f"rk4 halving ratio {rk4_ratio:.2f} (nominal 16), "
                  f"implicit-step ratio {mm_ratio:.2f} (nominal 2)")
    assert 11.0 <= rk4_ratio <= 21.0
    assert 1.8 <= mm_ratio <= 2.2


def test_criterion_11_energy_decay(synthesized):
    rng = np.random.default_rng(11)
    failures = 0
    for _, _, diag, gs in synthesized:
        for _ in range(10):
            traj = gf.exact_trajectory(diag, rng.standard_normal(gs.dim),
                                       1.0, nodes=200)
            if not gf.dissipation_audit(gs, traj).monotone:
                failures += 1
    ok = failures == 0
    _line(11, ok, f"energy non-increasing on 1000 exact trajectories "
                  f"({failures} failures)")
    assert failures == 0


def test_criterion_12_simplex_preservation():
    rng = np.random.default_rng(12)
    worst_mass = 0.0
    min_coordinate = 1.0
    for factory in (gf.reversible_three_state, gf.nonreversible_three_state):
        diag = gf.real_diagonalise(factory().matrix)
        starts = rng.dirichlet(np.ones(3), size=20) * (1.0 - 3e-3) + 1e-3
        for t in np.linspace(0.0, 10.0, 21):
            moved = gf.exact_flow(diag, starts, t)
            worst_mass = max(worst_mass,
                             float(np.max(np.abs(moved.sum(axis=1) - 1.0))))
            min_coordinate = min(min_coordinate, float(moved.min()))
    ok = worst_mass <= 1e-12 and min_coordinate > 0.0
    _line(12, ok, f"mass drift {worst_mass:.3e}, minimum coordinate "
                  f"{min_coordinate:.3e}")
    assert worst_mass <= 1e-12
    assert min_coordinate > 0.0
