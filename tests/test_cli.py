"""Command-line front end tests: exit codes, schemas, determinism, formats."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gradflow import cli, errors
from gradflow.cli import main
from gradflow.serialize import REPORT_SCHEMA, load_system_document, save_system_document
from gradflow import (CanonicalGradientSystem, Diagonalisation, nonreversible_three_state,
                      nonreversible_three_state_system, real_diagonalise,
                      reversible_three_state, synthesize_canonical)

from conftest import blowup_diagonalisation, make_diagonalisation, make_transform

THREE_STATE_DOC = {"dim": 3, "rows": [[-2, 0, 2], [1, -3, 2], [1, 3, -4]]}
ROTATION_DOC = {"dim": 2, "rows": [[0, -1], [1, 0]]}
JORDAN_DOC = {"dim": 2, "rows": [[0, 1], [0, 0]]}


@pytest.fixture
def workdir(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return tmp_path, write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_analyze_diagonalisable_matrix(workdir, capsys):
    _, write = workdir
    code, report, _ = run(capsys, "analyze", write("a.json", THREE_STATE_DOC))
    assert code == 0
    assert report["results"]["real_diagonalisable"] is True
    assert report["results"]["failure_kind"] == "None"
    reals = sorted(e["real"] for e in report["results"]["eigenvalues"])
    assert np.allclose(reals, [-6.0, -3.0, 0.0], atol=1e-9)
    jsonschema.validate(report, REPORT_SCHEMA)


def test_analyze_rotation_is_a_finding_not_an_error(workdir, capsys):
    _, write = workdir
    code, report, _ = run(capsys, "analyze", write("rot.json", ROTATION_DOC))
    assert code == 0
    assert report["results"]["real_diagonalisable"] is False
    assert report["results"]["failure_kind"] == "ComplexSpectrum"
    assert report["results"]["condition"] is None


def test_analyze_malformed_json_exits_2(workdir, capsys):
    tmp_path, _ = workdir
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report, err = run(capsys, "analyze", str(bad))
    assert code == 2 and report is None
    assert "parse error" in err


def test_analyze_dimension_mismatch_exits_3(workdir, capsys):
    _, write = workdir
    path = write("rect.json", {"dim": 2, "rows": [[1, 2, 3], [4, 5, 6]]})
    code, _, err = run(capsys, "analyze", path)
    assert code == 3
    assert "dimension" in err


def test_synthesize_writes_certified_system(workdir, capsys):
    tmp_path, write = workdir
    out = str(tmp_path / "system.json")
    code, report, _ = run(capsys, "synthesize",
                          write("a.json", THREE_STATE_DOC), "--out", out)
    assert code == 0
    assert report["results"]["flow_residual"] <= 1e-9
    assert report["results"]["spd"] is True
    jsonschema.validate(report, REPORT_SCHEMA)
    matrix, diag, gs, _ = load_system_document(out)
    assert np.linalg.norm(matrix + gs.onsager @ gs.hessian) <= 1e-9 * np.linalg.norm(matrix)
    assert np.allclose(np.sort(diag.eigenvalues), [-6.0, -3.0, 0.0], atol=1e-9)


def test_synthesize_symmetric_matrix_gives_identity_onsager(workdir, capsys):
    tmp_path, write = workdir
    doc = {"dim": 3, "rows": [[-2, 1, 1], [1, -2, 1], [1, 1, -2]]}
    out = str(tmp_path / "sym.json")
    code, _, _ = run(capsys, "synthesize", write("s.json", doc), "--out", out)
    assert code == 0
    _, _, gs, _ = load_system_document(out)
    assert np.allclose(gs.onsager, np.eye(3), atol=1e-9)


def test_synthesize_jordan_block_exits_4(workdir, capsys):
    """The nilpotent block, and one at -1 that rounding splits into two close
    real eigenvalues, with an eigenbasis of condition about 2.4e8."""
    tmp_path, write = workdir
    for doc in (JORDAN_DOC, {"dim": 2, "rows": [[-13, 9], [-16, 11]]}):
        code, report, err = run(capsys, "synthesize", write("j.json", doc),
                                "--out", str(tmp_path / "x.json"))
        assert code == 4 and report is None
        assert "Defective" in err


def test_verify_command_passes_and_validates_schema(workdir, capsys):
    tmp_path, write = workdir
    out = str(tmp_path / "system.json")
    run(capsys, "synthesize", write("a.json", THREE_STATE_DOC), "--out", out)
    code, report, _ = run(capsys, "verify", out)
    assert code == 0
    assert report["results"]["passed"] is True
    assert report["results"]["factorisation_residual"] <= 1e-15
    jsonschema.validate(report, REPORT_SCHEMA)


def _mutated_system(system: Path, name: str, mutate) -> str:
    """A copy of ``system`` (without its sidecar) after ``mutate(doc)``."""
    doc = json.loads(system.read_text())
    mutate(doc)
    path = system.with_name(name)
    path.write_text(json.dumps(doc))
    return str(path)


def _change_eigenvalue(doc):
    doc["eigenvalues"][-1] = 2.0


def _double_and_reverse_rows(doc):
    rows = doc["transform"]["rows"]
    rows[0] = [2.0 * x for x in rows[0]]
    rows[1].reverse()


@pytest.mark.parametrize("mutate", [_change_eigenvalue, _double_and_reverse_rows],
                         ids=["eigenvalue-0-to-2", "transform-rows"])
def test_verify_fails_a_transform_that_does_not_factor_the_matrix(workdir, capsys, mutate):
    """``A = -K B`` still holds, but ``T A = diag(w) T`` does not: the
    factorisation that convexity and simulate read is not the matrix's."""
    tmp_path, write = workdir
    system = tmp_path / "system.json"
    run(capsys, "synthesize", write("a.json", THREE_STATE_DOC), "--out", str(system))
    code, report, _ = run(capsys, "verify", _mutated_system(system, "bad.json", mutate))
    assert code == 0
    results = report["results"]
    assert results["max_residual"] <= 1e-15
    assert results["factorisation_residual"] > 0.1
    assert results["passed"] is False


@pytest.mark.parametrize("route", ["json", "sidecar"])
@pytest.mark.parametrize("argv", [
    ["convexity", "--out", "report.json"],
    ["simulate", "--x0", "1,0,0", "--t-end", "3", "--out", "t.csv"],
], ids=["convexity", "simulate"])
def test_a_system_that_does_not_factor_its_matrix_exits_4_before_any_output(
        workdir, capsys, argv, route):
    """``convexity`` and ``simulate`` measure the file's factorisation as ``verify``
    does and refuse it, read from the JSON or from a sidecar that matches it."""
    tmp_path, write = workdir
    system = tmp_path / "system.json"
    run(capsys, "synthesize", write("a.json", THREE_STATE_DOC), "--out", str(system))
    if route == "json":
        bad = _mutated_system(system, "bad.json", _change_eigenvalue)
    else:
        matrix, diag, gs, _ = load_system_document(system)
        eigenvalues = diag.eigenvalues.copy()
        eigenvalues[-1] = 2.0
        bad = str(tmp_path / "bad.json")
        save_system_document(bad, matrix, Diagonalisation(diag.transform, eigenvalues), gs)
        assert Path(bad + ".cache").exists()
    before = sorted(os.listdir(tmp_path))
    command, *options = argv
    out = str(tmp_path / options[-1])
    code, report, err = run(capsys, command, bad, *options[:-1], out)
    assert (code, report) == (4, None)
    assert err.startswith(f"gradflow: precondition failed: {bad}: transform and "
                          "eigenvalues do not factor the matrix (residual ")
    assert sorted(os.listdir(tmp_path)) == before  # no --out file


def _non_canonical_records(kind: str):
    """The records of the README matrix, whose ``transform`` and ``eigenvalues``
    factor it exactly, with a pair that is not the canonical one of them."""
    matrix = nonreversible_three_state().matrix
    diag = real_diagonalise(matrix)
    gs = synthesize_canonical(diag)
    onsager, hessian, equilibrium = gs.onsager, gs.hessian, gs.equilibrium.copy()
    if kind == "onsager-1e-6":
        onsager = onsager * (1.0 + 1e-6)
    elif kind == "hessian-1e-6":
        hessian = hessian * (1.0 + 1e-6)
    elif kind == "equilibrium-1e-3":
        equilibrium[0] = 1e-3
    else:  # the chain's own valid pair: a = -K B, but not K = inv(T) inv(T).T
        return matrix, diag, nonreversible_three_state_system()
    return matrix, diag, CanonicalGradientSystem(onsager, hessian, equilibrium)


@pytest.mark.parametrize("route", ["json", "sidecar"])
@pytest.mark.parametrize("kind", ["onsager-1e-6", "hessian-1e-6", "equilibrium-1e-3",
                                  "chain-pair"])
def test_a_system_that_is_not_the_canonical_pair_of_its_factorisation_exits_4(
        workdir, capsys, kind, route):
    """``verify`` reports the pair's defect and fails; ``convexity`` and
    ``simulate`` refuse the file before any output, read from the JSON or from
    the sidecar beside it."""
    tmp_path, _ = workdir
    system = str(tmp_path / "system.json")
    save_system_document(system, *_non_canonical_records(kind))
    if route == "json":
        os.remove(system + ".cache")
    code, report, err = run(capsys, "verify", system)
    assert (code, err) == (0, "")
    results = report["results"]
    assert results["factorisation_residual"] <= 1e-15
    assert results["canonical_residual"] > 1e-9 and results["passed"] is False
    before = sorted(os.listdir(tmp_path))
    for argv in (["convexity", system, "--out", str(tmp_path / "report.json")],
                 ["simulate", system, "--x0", "1,0,0", "--t-end", "1", "--method", "mm",
                  "--step", "0.25", "--out", str(tmp_path / "t.csv")]):
        code, report, err = run(capsys, *argv)
        assert (code, report) == (4, None)
        assert err.startswith(f"gradflow: precondition failed: {system}: onsager, hessian "
                              "and equilibrium are not the canonical pair of transform "
                              "and eigenvalues (residual ")
        assert sorted(os.listdir(tmp_path)) == before  # no --out file


@pytest.mark.parametrize("fields, defect", [
    ({"matrix": [[1e-300, 0.0], [0.0, 1e-300]], "hessian": [[-1e-300, 0.0], [0.0, -1e-300]],
      "transform": [[1.0, 0.0], [0.0, 1.0]], "eigenvalues": [1e10, 1e10]}, 1.0),
    ({"matrix": [[-1.0, 0.0], [0.0, -1.0]], "hessian": [[1.0, 0.0], [0.0, 1.0]],
      "transform": [[1e300, 0.0], [0.0, 1e300]], "eigenvalues": [-1.0, -2.0]}, 0.2 ** 0.5),
], ids=["eigenvalues-2^1030-times-the-matrix", "transform-1e300"])
def test_verify_of_factors_beyond_the_matrix_scale_reads_a_finite_defect(
        workdir, capsys, fields, defect):
    """``T`` is read on its own scale, and ``a`` and ``w`` on the larger of theirs,
    relative to ``max(|a|_F, |w|_2)``: nothing overflows, and the file fails."""
    _, write = workdir
    doc = {"schema_version": "1", "kind": "gradient-system", "dim": 2,
           "onsager": {"dim": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]},
           "equilibrium": [0.0, 0.0], "residual": 0.0, "eigenvalues": fields["eigenvalues"]}
    for key in ("matrix", "hessian", "transform"):
        doc[key] = {"dim": 2, "rows": fields[key]}
    code, report, err = run(capsys, "verify", write("far.json", doc))
    assert (code, err) == (0, "")
    assert report["results"] == {"max_residual": 0.0,
                                 "factorisation_residual": pytest.approx(defect),
                                 "canonical_residual": 1.0, "passed": False}


@pytest.mark.parametrize("k", [-40, 40])
def test_factorisation_residual_is_the_same_at_any_scale(workdir, capsys, k):
    """``A``, ``w`` and the hessian times ``2**k``: every residual reads the same bits."""
    tmp_path, write = workdir
    planted = make_diagonalisation(np.random.default_rng(8), 8, cond=30.0)
    system = tmp_path / "system.json"
    run(capsys, "synthesize", write("a.json", {"dim": 8, "rows": planted.reconstruct().tolist()}),
        "--out", str(system))

    def scale(doc):
        for key in ("matrix", "hessian"):
            doc[key]["rows"] = np.ldexp(doc[key]["rows"], k).tolist()
        doc["eigenvalues"] = np.ldexp(doc["eigenvalues"], k).tolist()

    results = [run(capsys, "verify", path)[1]["results"]
               for path in (str(system), _mutated_system(system, "scaled.json", scale))]
    assert results[0] == results[1]
    assert 0.0 < results[0]["factorisation_residual"] <= 1e-14
    assert 0.0 < results[0]["canonical_residual"] <= 1e-14


def test_verify_of_a_zero_matrix_with_a_nonzero_flow_fails_without_traceback(workdir, capsys):
    """``A = 0`` leaves no scale to divide by: a nonzero ``K B`` and ``w`` read 1."""
    _, write = workdir
    eye = {"dim": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]}
    system = write("zero.json", {
        "schema_version": "1", "kind": "gradient-system", "dim": 2,
        "matrix": {"dim": 2, "rows": [[0.0, 0.0], [0.0, 0.0]]},
        "onsager": eye, "hessian": eye, "equilibrium": [0.0, 0.0], "transform": eye,
        "eigenvalues": [-1.0, -1.0], "residual": 0.0})
    code, report, err = run(capsys, "verify", system)
    assert (code, err) == (0, "")
    assert report["results"] == {"max_residual": 1.0, "factorisation_residual": 1.0,
                                 "canonical_residual": 0.0, "passed": False}


def test_convexity_command_reports_certificates(workdir, capsys):
    tmp_path, write = workdir
    out = str(tmp_path / "system.json")
    run(capsys, "synthesize", write("a.json", THREE_STATE_DOC), "--out", out)
    code, report, _ = run(capsys, "convexity", out, "--seed", "0")
    assert code == 0
    results = report["results"]
    assert results["monotonicity_violation"] == 0.0
    assert results["geodesic_violation"] <= 1e-9
    assert results["contraction_violation"] <= 1e-9
    assert results["spectrum_nonpositive"] is True
    jsonschema.validate(report, REPORT_SCHEMA)
    # the certificates are exact: --samples and --seed change no byte
    texts = []
    for argv in (["--seed", "0"], ["--seed", "7", "--samples", "3"]):
        assert main(["convexity", out, *argv]) == 0
        texts.append(re.sub(r'\n *"generated_at": [^\n]*', "", capsys.readouterr().out))
    assert texts[0] == texts[1]


def test_convexity_tol_sets_the_spectrum_sign_test(workdir, capsys):
    # max w = 1e-10 is non-positive at the default 1e-9, positive at 1e-12
    tmp_path, write = workdir
    out = str(tmp_path / "system.json")
    run(capsys, "synthesize", write("a.json", {"dim": 2, "rows": [[-1, 0], [0, 1e-10]]}),
        "--out", out)
    _, default, _ = run(capsys, "convexity", out, "--samples", "50")
    code, strict, _ = run(capsys, "convexity", out, "--samples", "50", "--tol", "1e-12")
    assert code == 0
    assert default["results"]["spectrum_nonpositive"] is True
    assert strict["results"]["spectrum_nonpositive"] is False
    assert strict["options"]["tol"] == 1e-12


def test_convexity_probe_times_scale_with_the_spectrum(workdir, capsys):
    # At fixed times (0.1, 1, 10) t * 80 = 800 left the exp range (exit 5);
    # in units of 1 / max|w| the largest probed growth is exp(10).
    tmp_path, write = workdir
    out = str(tmp_path / "system.json")
    run(capsys, "synthesize", write("a.json", {"dim": 2, "rows": [[-1, 0], [0, 80]]}),
        "--out", out)
    code, report, err = run(capsys, "convexity", out, "--samples", "200")
    assert code == 0 and "Traceback" not in err
    results = report["results"]
    assert results["monotonicity_violation"] <= 1e-12 * 80.0
    assert results["geodesic_violation"] <= 1e-12 * 80.0
    assert results["contraction_violation"] <= 1e-12 * np.exp(10.0)


def test_simulate_exact_zero_horizon_single_row(workdir, capsys):
    tmp_path, write = workdir
    system = str(tmp_path / "system.json")
    run(capsys, "synthesize", write("a.json", THREE_STATE_DOC), "--out", system)
    csv = tmp_path / "traj.csv"
    code, report, _ = run(capsys, "simulate", system, "--x0", "1,0,0",
                          "--t-end", "0", "--out", str(csv))
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,x3"
    assert len(lines) == 2
    assert [float(v) for v in lines[1].split(",")] == [0.0, 1.0, 0.0, 0.0]
    jsonschema.validate(report, REPORT_SCHEMA)


def test_simulate_rk4_tracks_exact_flow(workdir, capsys):
    tmp_path, write = workdir
    system = str(tmp_path / "system.json")
    run(capsys, "synthesize", write("a.json", THREE_STATE_DOC), "--out", system)
    code, report, _ = run(capsys, "simulate", system, "--x0", "1,0,0",
                          "--t-end", "1", "--method", "rk4", "--step", "0.001",
                          "--out", str(tmp_path / "t.csv"))
    assert code == 0
    from gradflow import exact_flow, real_diagonalise

    diag = real_diagonalise(np.array(THREE_STATE_DOC["rows"], dtype=float))
    target = exact_flow(diag, np.array([1.0, 0.0, 0.0]), 1.0)
    assert np.linalg.norm(np.array(report["results"]["final_state"]) - target) < 1e-10
    assert report["results"]["energy_monotone"] is True


def test_simulate_pair_reports_contraction_defect(workdir, capsys):
    tmp_path, write = workdir
    system = str(tmp_path / "system.json")
    run(capsys, "synthesize", write("a.json", THREE_STATE_DOC), "--out", system)
    code, report, _ = run(capsys, "simulate", system, "--x0", "1,0,0",
                          "--x0", "0,0,1", "--t-end", "2", "--out",
                          str(tmp_path / "t.csv"))
    assert code == 0
    assert report["results"]["contraction_defect"] == 0.0


def test_simulate_pair_start_contributes_no_defect(workdir, capsys):
    """At t = 0 the contraction bound is the start distance itself, so the
    defect there is exactly 0.  The start distance is the first of the gaps,
    all from one product: a second spelling of it once differed in the last
    bits and read a defect near 1e-15 on some of these pairs."""
    tmp_path, write = workdir
    system = str(tmp_path / "system.json")
    for seed in range(12):
        rng = np.random.default_rng(seed)
        planted = make_diagonalisation(rng, 12)
        matrix = write("a.json", {"dim": 12, "rows": planted.reconstruct().tolist()})
        assert run(capsys, "synthesize", matrix, "--out", system)[0] == 0
        starts = [",".join(map(repr, rng.standard_normal(12).tolist())) for _ in range(2)]
        code, report, _ = run(capsys, "simulate", system, *(f"--x0={x}" for x in starts),
                              "--t-end", "1", "--nodes", "5",
                              "--out", str(tmp_path / "t.csv"))
        assert code == 0
        assert report["results"]["contraction_defect"] == 0.0


@pytest.mark.filterwarnings("error")
def test_simulate_identical_pair_on_expanding_system_is_clean(workdir, capsys):
    tmp_path, write = workdir
    # sup w = 1 > 0 and nearly parallel eigenvectors: exp(-lambda t) overflows
    doc = {"dim": 2, "rows": [[1, 50], [0, -1]]}
    system = str(tmp_path / "system.json")
    run(capsys, "synthesize", write("e.json", doc), "--out", system)
    code, report, err = run(capsys, "simulate", system, "--x0", "1,1",
                            "--x0", "1,1", "--t-end", "1", "--out",
                            str(tmp_path / "t.csv"))
    assert code == 0 and err == ""
    assert report["results"]["contraction_defect"] == 0.0


def test_simulate_minimizing_movement_singular_step_exits_5(workdir, capsys):
    tmp_path, write = workdir
    # positive eigenvalue makes the energy curvature indefinite
    doc = {"dim": 2, "rows": [[1, 0], [0, -1]]}
    system = str(tmp_path / "system.json")
    run(capsys, "synthesize", write("m.json", doc), "--out", system)
    code, _, err = run(capsys, "simulate", system, "--x0", "1,1",
                       "--t-end", "5", "--method", "mm", "--step", "2.0",
                       "--out", str(tmp_path / "t.csv"))
    assert code == 5
    assert "numeric failure" in err


def test_simulate_overflow_exits_5(workdir, capsys):
    tmp_path, write = workdir
    doc = {"dim": 1, "rows": [[1]]}
    system = str(tmp_path / "system.json")
    run(capsys, "synthesize", write("g.json", doc), "--out", system)
    code, _, err = run(capsys, "simulate", system, "--x0", "1",
                       "--t-end", "1000", "--out", str(tmp_path / "t.csv"))
    assert code == 5
    assert "numeric failure" in err


@pytest.mark.parametrize("x0", ["0,1", "0,0"])
def test_simulate_exact_runs_past_the_exp_range_of_a_mode_left_at_zero(workdir, capsys, x0):
    """``t w = 800`` in the growing mode of ``diag(1, -1)``, which neither
    start excites: exact finishes like rk4 instead of exiting 5."""
    tmp_path, write = workdir
    system = str(tmp_path / "system.json")
    assert run(capsys, "synthesize", write("a.json", {"dim": 2, "rows": [[1, 0], [0, -1]]}),
               "--out", system)[0] == 0
    csv = tmp_path / "t.csv"
    argv = ["simulate", system, f"--x0={x0}", "--t-end", "800", "--out", str(csv)]
    code, report, err = run(capsys, *argv, "--method", "exact", "--nodes", "5")
    assert (code, err) == (0, "")
    assert report["results"]["final_state"] == [0.0, 0.0]
    rows = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 1], np.zeros(5))
    assert np.array_equal(rows[:, 2], float(x0[-1]) * np.exp(-rows[:, 0]))
    code, report, _ = run(capsys, *argv, "--method", "rk4", "--step", "1")
    assert code == 0 and report["results"]["final_state"] == [0.0, 0.0]
    code, _, err = run(capsys, *argv[:2], "--x0=1,0", *argv[3:])
    assert code == 5 and "exceeds the exp range" in err


@pytest.mark.parametrize("method, node", [
    (["--nodes", "3"], "1"),
    (["--method", "rk4", "--step", "0.001"], "0.999"),
    (["--method", "mm", "--step", "0.001"], "0.58"),
])
def test_simulate_blowup_exits_5_naming_the_node(tmp_path, capsys, method, node):
    # the exact eigenvalues, so the exact method reaches exp(700), not the guard
    diag, start = blowup_diagonalisation()
    system = str(tmp_path / "system.json")
    save_system_document(system, diag.reconstruct(), diag, synthesize_canonical(diag))
    x0 = ",".join(repr(float(v)) for v in start)
    out = tmp_path / "t.csv"
    code, report, err = run(capsys, "simulate", system, f"--x0={x0}", "--t-end", "1",
                            *method, "--out", str(out))
    assert code == 5 and report is None and not out.exists()
    assert err == f"gradflow: numeric failure: state became non-finite at t = {node}\n"


def test_simulate_missing_step_for_rk4_exits_2(workdir, capsys):
    tmp_path, write = workdir
    system = str(tmp_path / "system.json")
    run(capsys, "synthesize", write("a.json", THREE_STATE_DOC), "--out", system)
    code, _, _ = run(capsys, "simulate", system, "--x0", "1,0,0",
                     "--t-end", "1", "--method", "rk4",
                     "--out", str(tmp_path / "t.csv"))
    assert code == 2


def test_simulate_methods_share_the_step_grid(workdir, capsys):
    """With --step every method writes the nodes 0, step, 2 step, ..., t_end."""
    tmp_path, write = workdir
    system = str(tmp_path / "system.json")
    run(capsys, "synthesize", write("a.json", THREE_STATE_DOC), "--out", system)
    columns = {}
    for method in ("exact", "rk4", "mm"):
        csv = tmp_path / f"{method}.csv"
        code, report, _ = run(capsys, "simulate", system, "--x0", "1,0,0", "--t-end", "1",
                              "--method", method, "--step", "0.3", "--out", str(csv))
        assert code == 0 and report["results"]["nodes"] == 5
        columns[method] = [line.split(",")[0] for line in csv.read_text().splitlines()]
    assert columns["exact"] == columns["rk4"] == columns["mm"]
    assert [float(t) for t in columns["exact"][1:]] == pytest.approx([0, 0.3, 0.6, 0.9, 1])


def test_simulate_unknown_method_exits_2_naming_the_choices(workdir, capsys):
    tmp_path, write = workdir
    system = str(tmp_path / "system.json")
    run(capsys, "synthesize", write("a.json", THREE_STATE_DOC), "--out", system)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", system, "--x0", "1,0,0", "--t-end", "1", "--method", "euler",
              "--out", str(tmp_path / "t.csv")])
    assert exc.value.code == 2
    assert ("argument --method: invalid choice: 'euler' (choose from 'exact', 'rk4', 'mm')"
            in capsys.readouterr().err)


def test_simulate_x0_length_mismatch_exits_3(workdir, capsys):
    tmp_path, write = workdir
    system = str(tmp_path / "system.json")
    run(capsys, "synthesize", write("a.json", THREE_STATE_DOC), "--out", system)
    code, _, _ = run(capsys, "simulate", system, "--x0", "1,0",
                     "--t-end", "1", "--out", str(tmp_path / "t.csv"))
    assert code == 3


def test_simulate_x0_non_number_exits_2(workdir, capsys):
    tmp_path, write = workdir
    system = str(tmp_path / "system.json")
    run(capsys, "synthesize", write("a.json", THREE_STATE_DOC), "--out", system)
    code, report, err = run(capsys, "simulate", system, "--x0", "1,a,0",
                            "--t-end", "1", "--out", str(tmp_path / "t.csv"))
    assert code == 2 and report is None
    assert "gradflow: parse error: bad state vector '1,a,0'" in err
    assert not (tmp_path / "t.csv").exists()


def test_markov_subcommands(workdir, capsys):
    _, write = workdir
    gen = write("gen.json", {"convention": "transposed", "dim": 3,
                             "rows": reversible_three_state().matrix.tolist()})
    code, report, _ = run(capsys, "markov", gen, "validate")
    assert code == 0 and report["results"]["valid"] is True
    code, report, _ = run(capsys, "markov", gen, "stationary")
    assert code == 0
    assert np.allclose(report["results"]["distribution"], 1.0 / 3.0)
    code, report, _ = run(capsys, "markov", gen, "reversible")
    assert code == 0 and report["results"]["reversible"] is True
    for argv, samples in (([], 1000), (["--samples", "100"], 100)):  # the default first
        code, report, _ = run(capsys, "markov", gen, "entropic-verify", *argv)
        assert code == 0
        assert report["results"]["num_samples"] == samples
        assert report["results"]["max_residual"] <= 1e-9
        assert report["results"]["passed"] is True
        jsonschema.validate(report, REPORT_SCHEMA)


def test_markov_nonreversible_findings_and_errors(workdir, capsys):
    _, write = workdir
    gen = write("gen2.json", {"convention": "transposed", "dim": 3,
                              "rows": nonreversible_three_state().matrix.tolist()})
    code, report, _ = run(capsys, "markov", gen, "reversible")
    assert code == 0 and report["results"]["reversible"] is False
    code, _, err = run(capsys, "markov", gen, "entropic-verify")
    assert code == 4
    assert "precondition" in err


def test_markov_invalid_generator_is_a_validate_finding(workdir, capsys):
    _, write = workdir
    gen = write("bad.json", {"convention": "transposed", "dim": 2,
                             "rows": [[-1.0, 0.0], [2.0, 0.0]]})
    code, report, _ = run(capsys, "markov", gen, "validate")
    assert code == 0
    assert report["results"]["valid"] is False
    assert report["results"]["failure"] == "ColumnSumError"
    # but it is a precondition failure for the other subcommands
    code, _, _ = run(capsys, "markov", gen, "stationary")
    assert code == 4


def test_markov_reducible_chain_is_a_precondition_failure(workdir, capsys):
    tmp_path, write = workdir
    gen = write("gen.json", {"convention": "transposed", "dim": 3,
                             "rows": [[-1, 0, 0], [1, 0, 0], [0, 0, 0]]})
    out = tmp_path / "r.json"
    code, report, err = run(capsys, "markov", gen, "stationary", "--out", str(out))
    assert code == 4 and report is None
    assert "precondition failed: kernel dimension 2" in err
    assert not out.exists()


@pytest.mark.parametrize("rows", [[[-1, 0], [1, 0]], [[-1, 0, 0], [1, -1, 1], [0, 1, -1]]],
                         ids=["two-state", "three-state"])
@pytest.mark.parametrize("subcommand", ["stationary", "reversible", "entropic-verify"])
def test_markov_transient_state_is_a_precondition_failure(workdir, capsys, rows, subcommand):
    """State 0 drains into the rest and is never re-entered: the kernel is
    one-dimensional but vanishes there, so the chain is reducible."""
    _, write = workdir
    gen = write("gen.json", {"convention": "transposed", "dim": len(rows), "rows": rows})
    assert run(capsys, "markov", gen, subcommand) == (
        4, None, "gradflow: precondition failed: kernel vector is not strictly positive\n")


def test_markov_requires_convention_marker(workdir, capsys):
    _, write = workdir
    gen = write("gen.json", {"dim": 3,
                             "rows": reversible_three_state().matrix.tolist()})
    code, _, err = run(capsys, "markov", gen, "validate")
    assert code == 2
    assert "convention" in err


SIMULATE = ["simulate", "{system}", "--x0", "1,0,0", "--t-end", "1", "--nodes", "9",
            "--out", "{csv}"]


@pytest.mark.parametrize("argv, keys", [
    (["markov", "{gen}", "validate", "--samples", "7", "--seed", "3", "--out", "{out}"], None),
    (["markov", "{gen}", "stationary", "--samples", "7", "--out", "{out}"], None),
    (["markov", "{gen}", "reversible", "--seed", "3", "--out", "{out}"], None),
    (["markov", "{gen}", "entropic-verify", "--samples", "7", "--seed", "3", "--out", "{out}"],
     ["subcommand", "tol", "samples", "seed"]),
    (SIMULATE, ["method", "t_end", "step", "nodes"]),
    (SIMULATE + ["--step", "0.5"], None),
], ids=["validate", "stationary", "reversible", "entropic-verify", "simulate-nodes",
        "simulate-step"])
def test_report_options_hold_only_the_settings_that_took_effect(workdir, capsys, argv, keys):
    """``--samples`` and ``--seed`` feed only ``entropic-verify``, and ``--nodes``
    only the exact method's node grid without ``--step``, so only those reports
    echo them.  Given anywhere else, each is refused (``keys`` None): exit 2,
    one stderr line and no output file."""
    tmp_path, write = workdir
    fields = {"gen": write("gen.json", {"convention": "transposed", "dim": 3,
                                        "rows": reversible_three_state().matrix.tolist()}),
              "system": str(tmp_path / "system.json"), "csv": str(tmp_path / "t.csv"),
              "out": str(tmp_path / "report.json")}
    run(capsys, "synthesize", write("a.json", THREE_STATE_DOC), "--out", fields["system"])
    before = sorted(tmp_path.iterdir())
    code, report, err = run(capsys, *(part.format(**fields) for part in argv))
    if keys is None:
        assert (code, report) == (2, None)
        assert err.startswith("gradflow: parse error: --") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before
    else:
        assert code == 0
        assert list(report["options"]) == keys


def test_reports_are_deterministic_modulo_timestamp(workdir, capsys):
    _, write = workdir
    path = write("a.json", THREE_STATE_DOC)
    _, first, _ = run(capsys, "analyze", path, "--tol", "1e-10")
    _, second, _ = run(capsys, "analyze", path, "--tol", "1e-10")
    first.pop("generated_at")
    second.pop("generated_at")
    assert first == second
    assert first["inputs_digest"] == second["inputs_digest"]


@pytest.mark.parametrize("command", ["synthesize", "simulate"])
def test_inputs_digest_names_the_input_that_out_overwrites(workdir, capsys, command):
    """The digest is of the bytes parsed, not of the file ``--out`` left behind."""
    tmp_path, write = workdir
    path = write("a.json", THREE_STATE_DOC)
    extra = []
    if command == "simulate":
        system = str(tmp_path / "system.json")
        assert main(["synthesize", path, "--out", system]) == 0
        capsys.readouterr()
        path, extra = system, ["--x0", "1,0,0", "--t-end", "1", "--nodes", "3"]
    before = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    code, report, _ = run(capsys, command, path, *extra, "--out", path)
    assert code == 0
    assert report["inputs_digest"] == before
    assert hashlib.sha256(Path(path).read_bytes()).hexdigest() != before


def test_trajectory_csv_roundtrips_doubles(workdir, capsys):
    tmp_path, write = workdir
    system = str(tmp_path / "system.json")
    run(capsys, "synthesize", write("a.json", THREE_STATE_DOC), "--out", system)
    csv = tmp_path / "traj.csv"
    run(capsys, "simulate", system, "--x0", "0.1,0.7,0.2", "--t-end", "1",
        "--nodes", "7", "--out", str(csv))
    from gradflow import exact_trajectory, real_diagonalise

    diag = real_diagonalise(np.array(THREE_STATE_DOC["rows"], dtype=float))
    traj = exact_trajectory(diag, np.array([0.1, 0.7, 0.2]), 1.0, nodes=7)
    lines = csv.read_text().strip().splitlines()
    assert len(lines) == 8
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed[:, 0], traj.times)
    assert np.array_equal(parsed[:, 1:], traj.states)


def test_report_out_flag_writes_identical_json(workdir, capsys):
    tmp_path, write = workdir
    path = write("a.json", THREE_STATE_DOC)
    saved = tmp_path / "report.json"
    code, report, _ = run(capsys, "analyze", path, "--out", str(saved))
    assert code == 0
    assert json.loads(saved.read_text()) == report


HUGE = "1" + "0" * 21  # 1e21 as an integer


@pytest.mark.parametrize("argv", [
    ("convexity", "{system}", "--samples", "0"),
    ("markov", "{generator}", "entropic-verify", "--samples", "0"),
    ("simulate", "{system}", "--x0", "1,0,0", "--t-end", "1", "--nodes", "0"),
    ("simulate", "{system}", "--x0", "1,0,0", "--t-end", "-1"),
    ("simulate", "{system}", "--x0", "1,0,0", "--t-end", "1", "--method", "mm",
     "--step", "0"),
    ("simulate", "{system}", "--x0", "nan,0,0", "--t-end", "1"),
    ("simulate", "{system}", "--x0", "1,0,0", "--t-end", "1", "--method", "rk4",
     "--step", "2"),
    ("simulate", "{system}", "--x0", "1,0,0", "--t-end", "1", "--method", "mm",
     "--step", "2"),
    ("simulate", "{system}", "--x0", "1,0,0", "--t-end", "0", "--method", "rk4",
     "--step", "0.5"),
    ("analyze", "{matrix}", "--tol", "-1"),
    ("analyze", "{matrix}", "--tol", "0"),
    ("analyze", "{matrix}", "--tol", "nan"),
    ("analyze", "{matrix}", "--tol", "inf"),
    # counts that size an array: refused above MAX_COUNT, before any allocation
    ("simulate", "{system}", "--x0", "1,0,0", "--t-end", "1", "--step", "1e-300"),
    ("simulate", "{system}", "--x0", "1,0,0", "--t-end", "1", "--method", "rk4",
     "--step", "1e-300"),
    ("simulate", "{system}", "--x0", "1,0,0", "--t-end", "1", "--method", "mm",
     "--step", "1e-300"),
    ("simulate", "{system}", "--x0", "1,0,0", "--t-end", "1", "--nodes", HUGE),
    ("convexity", "{system}", "--samples", HUGE),
    ("convexity", "{system}", "--samples", "1" + "0" * 400),
    ("markov", "{generator}", "entropic-verify", "--samples", HUGE),
    ("markov", "{generator}", "entropic-verify", "--seed", "-1"),
    ("simulate", "{system}", "--x0", "1,0,0", "--t-end", "1", "--method", "exact",
     "--step", "2"),
    ("simulate", "{system}", "--x0", "1,0,0", "--x0", "0,1,0", "--x0", "0,0,1",
     "--t-end", "1"),
])
def test_out_of_range_arguments_exit_2(workdir, capsys, argv):
    tmp_path, write = workdir
    system = str(tmp_path / "system.json")
    matrix = write("a.json", THREE_STATE_DOC)
    run(capsys, "synthesize", matrix, "--out", system)
    generator = write("gen.json", {"convention": "transposed", "dim": 3,
                                   "rows": reversible_three_state().matrix.tolist()})
    argv = [a.format(matrix=matrix, system=system, generator=generator) for a in argv]
    if argv[0] == "simulate":
        argv += ["--out", str(tmp_path / "t.csv")]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("argv, reason", [
    (("verify", "{matrix}"), ": not a gradient-system document\n"),
    (("verify", "{missing}"), "gradflow: parse error: cannot read "),
    (("analyze", "{matrix}", "--tol", "abc"), "argument --tol: invalid float value: 'abc'\n"),
], ids=["matrix-as-system", "missing-file", "tol-not-a-number"])
def test_refused_arguments_exit_2_naming_the_reason(workdir, capsys, argv, reason):
    tmp_path, write = workdir
    fields = {"matrix": write("a.json", THREE_STATE_DOC), "missing": tmp_path / "missing.json"}
    argv = [a.format(**fields) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert reason in captured.err and "Traceback" not in captured.err


def test_memory_error_exits_5(workdir, capsys, monkeypatch):
    _, write = workdir

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_analyze", exhausted)
    code, report, err = run(capsys, "analyze", write("a.json", THREE_STATE_DOC))
    assert code == 5 and report is None
    assert "gradflow: numeric failure: MemoryError" in err


def _documented_exit_codes() -> dict:
    """``{code: text}`` of the README's exit-code list, one item per code."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    items = re.findall(r"^- `(\d)` (.*?)(?=^- `|^$)", readme, flags=re.M | re.S)
    return {int(code): " ".join(text.split()) for code, text in items}


@pytest.mark.parametrize("failure", sorted(
    (cls for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, errors.GradFlowError)),
    key=lambda cls: cls.__name__) + [np.linalg.LinAlgError, MemoryError],
    ids=lambda cls: cls.__name__)
def test_every_failure_exits_with_a_documented_code_and_label(
        workdir, capsys, monkeypatch, failure):
    code, label = getattr(failure, "exit_code", 5), getattr(failure, "label", "numeric failure")
    assert label in _documented_exit_codes()[code]

    def fail(args):
        exc = failure.__new__(failure)  # skips a constructor's own arguments
        exc.args = ("detail",)
        raise exc

    monkeypatch.setattr(cli, "cmd_analyze", fail)
    _, write = workdir
    assert run(capsys, "analyze", write("a.json", THREE_STATE_DOC)) == (
        code, None, f"gradflow: {label}: detail\n")


# T = 1e160 I diagonalises diag(-1, 0), but its canonical pair is beyond the double
# range, so K = I and B = diag(1, 0) are not that pair.
LARGE_NORM_SYSTEM = {
    "schema_version": "1", "kind": "gradient-system", "dim": 2,
    "matrix": {"dim": 2, "rows": [[-1.0, 0.0], [0.0, 0.0]]},
    "onsager": {"dim": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]},
    "hessian": {"dim": 2, "rows": [[1.0, 0.0], [0.0, 0.0]]},
    "equilibrium": [0.0, 0.0],
    "transform": {"dim": 2, "rows": [[1e160, 0.0], [0.0, 1e160]]},
    "eigenvalues": [-1.0, 0.0],
    "residual": 0.0,
}


@pytest.mark.parametrize("argv", [
    ("convexity", "--samples", "10"),
    ("simulate", "--x0", "1,0", "--x0", "0,1", "--t-end", "1"),
])
def test_large_norm_transform_is_refused_with_exit_4_without_traceback(workdir, capsys, argv):
    """The pair check reads ``T``, ``K`` and ``B`` on unit-scaled copies, so it
    measures this file without overflow (reading 1) and refuses it before
    ``|T|^2`` is formed.  That overflow is pinned in
    ``test_geometry.py::test_convexity_constants_of_a_transform_norm_beyond_the_double_range``."""
    tmp_path, write = workdir
    system = write("big.json", LARGE_NORM_SYSTEM)
    code, report, _ = run(capsys, "verify", system)
    assert code == 0 and report["results"]["canonical_residual"] == pytest.approx(1.0)
    argv = [argv[0], system, *argv[1:]]
    if argv[0] == "simulate":
        argv += ["--out", str(tmp_path / "t.csv")]
    code, report, err = run(capsys, *argv)
    assert code == 4 and report is None
    assert "not the canonical pair" in err and "Traceback" not in err
    assert not (tmp_path / "t.csv").exists()


def test_ill_conditioned_transform_is_defective_and_exits_4_without_out_file(
        workdir, capsys, rng):
    """At cond(T) = 1e6 the synthesized Onsager operator would not be SPD at
    tol, so ``analyze`` reads Defective and ``synthesize`` writes nothing."""
    tmp_path, write = workdir
    planted = make_diagonalisation(rng, 6, cond=1e6)
    matrix = write("a.json", {"dim": 6, "rows": planted.reconstruct().tolist()})
    code, report, _ = run(capsys, "analyze", matrix)
    assert code == 0
    assert report["results"]["real_diagonalisable"] is False
    assert report["results"]["failure_kind"] == "Defective"
    assert report["results"]["condition"] is None
    system = tmp_path / "system.json"
    code, report, err = run(capsys, "synthesize", matrix, "--out", str(system))
    assert code == 4 and report is None
    assert "precondition failed" in err and "Traceback" not in err
    # no system file, sidecar or temporary file
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


@pytest.mark.parametrize("dim", [6, 20])
@pytest.mark.parametrize("sup", [-0.5, 1.0])
def test_analyze_accepts_exactly_what_synthesize_certifies(tmp_path, capsys, dim, sup):
    """One conditioning rule for every command, at the default tol.

    Over planted ``inv(T) diag(w) T`` with cond(T) from 1 to 5e8: when
    ``analyze`` says real diagonalisable, ``synthesize`` exits 0, ``verify``
    passes and ``convexity`` finds no violation beyond rounding; otherwise
    ``synthesize`` exits 4 and leaves no ``--out`` file and no sidecar.
    Both verdicts occur."""
    eigenvalues = np.linspace(sup - 4.5, sup, dim)
    verdicts = set()
    for cond in (1.0, 1e2, 1e4, 3e4, 1e5, 1e6, 1e7, 1e8, 5e8):
        case = tmp_path / f"cond{cond:g}"
        case.mkdir()
        transform = make_transform(np.random.default_rng(dim), dim, cond)
        rows = Diagonalisation(transform, eigenvalues).reconstruct().tolist()
        matrix = case / "a.json"
        matrix.write_text(json.dumps({"dim": dim, "rows": rows}))
        system = str(case / "system.json")
        _, report, _ = run(capsys, "analyze", str(matrix))
        accepted = report["results"]["real_diagonalisable"]
        verdicts.add(accepted)
        code, _, err = run(capsys, "synthesize", str(matrix), "--out", system)
        if not accepted:
            assert code == 4, (cond, err)
            assert [p.name for p in case.iterdir()] == ["a.json"], cond
            continue
        assert code == 0, (cond, err)
        _, report, _ = run(capsys, "verify", system)
        assert report["results"]["passed"] is True, cond
        _, report, _ = run(capsys, "convexity", system, "--samples", "200")
        results = report["results"]
        _, diag, _, _ = load_system_document(system)
        # |dx| <= 2 bounds the compared quadratic terms by `quad`; convexity
        # takes times up to 10 / max|w|, so a gap grows by at most exp(10)
        quad = 4.0 * diag.transform_norm ** 2 * max(
            np.max(np.abs(eigenvalues)), abs(results["geodesic_lambda"]))
        assert results["monotonicity_violation"] <= 1e-12 * quad, cond
        assert results["geodesic_violation"] <= 1e-12 * quad, cond
        assert (results["contraction_violation"]
                <= 1e-12 * 2.0 * np.exp(10.0) * diag.transform_norm), cond
    assert verdicts == {True, False}


@pytest.mark.parametrize("argv", [
    ("analyze", "{binary}"),
    ("verify", "{binary}"),
    ("markov", "{binary}", "validate"),
    ("analyze", "{matrix}", "--out", "{missing}/r.json"),
    ("synthesize", "{matrix}", "--out", "{missing}/s.json"),
    ("convexity", "{system}", "--samples", "10", "--out", "{missing}/r.json"),
    ("simulate", "{system}", "--x0", "1,0,0", "--t-end", "1",
     "--out", "{missing}/t.csv"),
])
def test_undecodable_input_and_unwritable_out_exit_2(workdir, capsys, argv):
    tmp_path, write = workdir
    matrix = write("a.json", THREE_STATE_DOC)
    system = str(tmp_path / "system.json")
    assert main(["synthesize", matrix, "--out", system]) == 0
    binary = tmp_path / "bin.json"
    binary.write_bytes(b'\xff\xfe{"dim": 1, "rows": [[0.0]]}')
    capsys.readouterr()
    argv = [a.format(matrix=matrix, system=system, binary=binary,
                     missing=tmp_path / "missing") for a in argv]
    code, report, err = run(capsys, *argv)
    assert code == 2 and report is None
    label = "output error" if "--out" in argv else "parse error"
    assert f"gradflow: {label}" in err and "Traceback" not in err
    # the only sidecar is the one beside the system file written above
    assert list(tmp_path.rglob("*.cache")) == [tmp_path / "system.json.cache"]


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ("analyze", "{matrix}"),
    ("synthesize", "{matrix}"),
    ("simulate", "{system}", "--x0", "1,0,0", "--t-end", "1"),
])
def test_write_failing_after_open_exits_2(workdir, capsys, argv):
    """/dev/full opens, then refuses every byte: the failure comes from a
    write or the final flush, not from opening the file."""
    tmp_path, write = workdir
    matrix = write("a.json", THREE_STATE_DOC)
    system = str(tmp_path / "system.json")
    assert main(["synthesize", matrix, "--out", system]) == 0
    capsys.readouterr()
    argv = [a.format(matrix=matrix, system=system) for a in argv]
    code, report, err = run(capsys, *argv, "--out", "/dev/full")
    assert code == 2 and report is None
    assert "cannot write /dev/full" in err and "Traceback" not in err


#: A child that caps the size of the files it writes at 2 KiB, then runs the CLI.
_CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_FSIZE, (2048, 2048))
from gradflow.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("earlier", [None, b"an earlier file\n"])
@pytest.mark.parametrize("argv", [
    ("analyze", "{matrix}"),
    ("synthesize", "{matrix}"),
    ("simulate", "{system}", "--x0", "1,0,0", "--t-end", "1"),
])
def test_write_cut_short_leaves_the_earlier_file_or_none(workdir, capsys, argv, earlier):
    """Each ``--out`` below is over 2 KiB, so the capped child's write fails
    part-way (EFBIG): it exits 2, and the target is absent or the earlier
    file byte for byte, with nothing else left in the directory."""
    pytest.importorskip("resource")
    tmp_path, write = workdir
    planted = make_diagonalisation(np.random.default_rng(50), 50, min_gap=0.01)
    matrix = write("a.json", {"dim": 50, "rows": planted.reconstruct().tolist()})
    system = str(tmp_path / "system.json")
    assert main(["synthesize", write("b.json", THREE_STATE_DOC), "--out", system]) == 0
    capsys.readouterr()
    target = tmp_path / "out"
    if earlier is not None:
        target.write_bytes(earlier)
    before = sorted(tmp_path.iterdir())
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    argv = [a.format(matrix=matrix, system=system) for a in argv]
    child = subprocess.run([sys.executable, "-c", _CAPPED_CLI, *argv, "--out", str(target)],
                           capture_output=True, text=True, env=env, check=False)
    assert child.returncode == 2, child.stderr
    assert "cannot write" in child.stderr and "Traceback" not in child.stderr
    assert sorted(tmp_path.iterdir()) == before
    if earlier is None:
        assert not target.exists()
    else:
        assert target.read_bytes() == earlier


@pytest.mark.parametrize("command, expected", [
    ("analyze", {"eig": 1, "svd": 1, "inv": 1}),
    ("synthesize", {"eig": 1, "svd": 1, "eigvalsh": 1, "inv": 2}),
    ("verify", {"svd": 1, "eigvalsh": 1}),
    ("convexity", {"svd": 1, "eigvalsh": 3}),
    ("simulate-pair", {"svd": 1, "eigvalsh": 1, "inv": 1}),
    ("simulate-rk4", {"svd": 1, "eigvalsh": 1}),
    ("simulate-mm", {"svd": 1, "eigvalsh": 1, "inv": 1}),
    ("markov-stationary", {"svd": 1}),
    ("markov-reversible", {"svd": 1}),
    ("markov-entropic-verify", {"svd": 1}),
])
def test_factorisation_counts_per_command(workdir, capsys, linalg_counts,
                                          command, expected):
    """Each command factorises the system once and reuses the record.

    One SVD, of the transform, gives the defective test, the condition and
    the metric norms; it validates a loaded transform too.  ``inv`` of the
    eigenbasis and of the transform are each computed at most once, and
    the one ``eigvalsh`` of every command is the system's semi-definiteness
    check; ``convexity`` adds one for each exact certificate that is a
    symmetric eigenproblem, monotonicity and geodesic convexity.  rk4
    adds nothing (its step advisory reads the Frobenius norm), mm the one
    ``inv`` of the transform, whose modes give every step in closed form;
    the check that a loaded pair is canonical adds nothing.  A chain's one SVD gives its stationary
    distribution; the 1000 entropic samples add no factorisation.
    """
    tmp_path, write = workdir
    planted = make_diagonalisation(np.random.default_rng(20), 20, min_gap=0.05)
    matrix = write("a.json", {"dim": 20, "rows": planted.reconstruct().tolist()})
    generator = write("gen.json", {"convention": "transposed", "dim": 3,
                                   "rows": reversible_three_state().matrix.tolist()})
    system = str(tmp_path / "system.json")
    assert main(["synthesize", matrix, "--out", system]) == 0
    simulate = ["simulate", system, "--x0", ",".join(["1"] * 20), "--t-end", "1",
                "--out", str(tmp_path / "t.csv")]
    argv = {
        "analyze": ["analyze", matrix],
        "synthesize": ["synthesize", matrix, "--out", system],
        "verify": ["verify", system],
        "convexity": ["convexity", system, "--samples", "50"],
        "simulate-pair": simulate + ["--x0", ",".join(["0", "1"] * 10)],
        "simulate-rk4": simulate + ["--method", "rk4", "--step", "0.25"],
        "simulate-mm": simulate + ["--method", "mm", "--step", "0.25"],
        "markov-stationary": ["markov", generator, "stationary"],
        "markov-reversible": ["markov", generator, "reversible"],
        "markov-entropic-verify": ["markov", generator, "entropic-verify"],
    }[command]
    linalg_counts.clear()
    assert main(argv) == 0
    capsys.readouterr()
    assert dict(linalg_counts) == expected


@pytest.mark.parametrize("rows, expected", [
    ([[0.0, -1.0], [1.0, 0.0]], {"eig": 1}),
    ([[0.0, 1.0], [0.0, 0.0]], {"eig": 1, "inv": 1, "svd": 1}),
    ([[-13.0, 9.0], [-16.0, 11.0]], {"eig": 1, "inv": 1, "svd": 1}),
    (np.diag(np.ones(2), 1).tolist(), {"eig": 1, "inv": 1}),
    (np.zeros((3, 3)).tolist(), {"svd": 1}),
], ids=["rotation", "jordan-2", "rounded-jordan", "jordan-3", "zero"])
def test_factorisation_counts_of_analyze_per_branch(workdir, capsys, linalg_counts,
                                                   rows, expected):
    """What each branch of the verdict factorises: a complex spectrum stops after
    ``eig``; a singular 3x3 Jordan eigenbasis stops at its ``inv``; a residual or
    conditioning refusal has run the record's one SVD; ``a = 0`` takes the
    identity, whose record still runs its SVD."""
    _, write = workdir
    matrix = write("a.json", {"dim": len(rows), "rows": rows})
    linalg_counts.clear()
    assert main(["analyze", matrix]) == 0
    capsys.readouterr()
    assert dict(linalg_counts) == expected


FUZZ_ARGV = st.one_of(
    st.sampled_from([["analyze", "{matrix}"],
                     ["synthesize", "{matrix}", "--out", "{system}"],
                     ["verify", "{system}"],
                     ["convexity", "{system}", "--samples", "5"]]),
    st.sampled_from(["exact", "rk4", "mm"]).map(
        lambda method: ["simulate", "{system}", "--x0", "{x0}", "--t-end", "1",
                        "--method", method, "--step", "0.5", "--out", "{csv}"]),
    st.sampled_from(["validate", "stationary", "reversible"]).map(
        lambda sub: ["markov", "{generator}", sub]),
    st.just(["markov", "{generator}", "entropic-verify", "--samples", "5"]),
)
FUZZ_OPTIONS = st.lists(st.sampled_from(
    ["--tol", "1e-9", "1e-300", "0.5", "0", "-1", "nan", "x", "--seed", "7"]), max_size=3)


@st.composite
def _square_rows(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    row = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                   min_size=dim, max_size=dim)
    return draw(st.lists(row, min_size=dim, max_size=dim))


def _exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(rows=_square_rows(), argv=FUZZ_ARGV, options=FUZZ_OPTIONS)
@example(rows=[[-2e200, 0.0, 2e200], [1e200, -3e200, 2e200], [1e200, 3e200, -4e200]],
         argv=["synthesize", "{matrix}", "--out", "{system}"], options=[])
@example(rows=[[-1.0, 1.0], [1.0, -1.0]],
         argv=["markov", "{generator}", "entropic-verify", "--samples", HUGE], options=[])
@example(rows=[[-1.0, 1.0], [1.0, -1.0]],
         argv=["convexity", "{system}", "--samples", HUGE], options=[])
@example(rows=[[-1.0, 1.0], [1.0, -1.0]],
         argv=["simulate", "{system}", "--x0", "{x0}", "--t-end", "1",
               "--nodes", HUGE, "--out", "{csv}"], options=[])
@example(rows=[[-1.0, 1.0], [1.0, -1.0]],
         argv=["simulate", "{system}", "--x0", "{x0}", "--t-end", "1", "--method",
               "exact", "--step", "1e-300", "--out", "{csv}"], options=[])
@example(rows=[[-1.0, 1.0], [1.0, -1.0]],
         argv=["simulate", "{system}", "--x0", "{x0}", "--t-end", "1", "--method",
               "rk4", "--step", "1e-300", "--out", "{csv}"], options=[])
@example(rows=[[-1.0, 1.0], [1.0, -1.0]],
         argv=["simulate", "{system}", "--x0", "{x0}", "--t-end", "1", "--method",
               "mm", "--step", "1e-300", "--out", "{csv}"], options=[])
def test_fuzzed_inputs_keep_the_exit_code_contract(rows, argv, options):
    """Any small matrix and argv ends in exit 0/2/3/4/5 with no traceback.

    Commands that read a system file get the one ``synthesize`` wrote for
    the same matrix, when it wrote one."""
    with tempfile.TemporaryDirectory() as tmp:
        fields = {name: str(Path(tmp) / name)
                  for name in ("matrix", "generator", "system", "csv")}
        Path(fields["matrix"]).write_text(json.dumps({"dim": len(rows), "rows": rows}))
        Path(fields["generator"]).write_text(json.dumps(
            {"convention": "transposed", "dim": len(rows), "rows": rows}))
        fields["x0"] = ",".join(["1"] * len(rows))
        if argv[0] in ("verify", "convexity", "simulate"):
            _exit_code(["synthesize", fields["matrix"], "--out", fields["system"]])
        code, err = _exit_code([part.format(**fields) for part in argv + options])
    assert code in (0, 2, 3, 4, 5), err
    assert "Traceback" not in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=8)


@st.composite
def _json_in_place(draw):
    """``(argv, document)``: one place of a valid input replaced by any JSON value."""
    command = draw(st.sampled_from([["analyze"], ["markov", "validate"], ["verify"]]))
    places = ["document", "dim", "rows"]
    if command == ["verify"]:
        with tempfile.TemporaryDirectory() as tmp:
            matrix, system = Path(tmp) / "a.json", Path(tmp) / "sys.json"
            matrix.write_text(json.dumps(THREE_STATE_DOC))
            assert _exit_code(["synthesize", str(matrix), "--out", str(system)])[0] == 0
            document = json.loads(system.read_text())
        places = ["document", *document]
    else:
        document = {"convention": "transposed", **THREE_STATE_DOC}
    place, value = draw(st.sampled_from(places)), draw(JSON_VALUES)
    return command, value if place == "document" else {**document, place: value}


@settings(max_examples=60, deadline=None)
@given(case=_json_in_place())
def test_any_json_value_in_any_place_keeps_the_exit_code_contract(case):
    """Any JSON value as the whole document, as ``dim`` or ``rows``, or as
    any field of a system file (read from its JSON, with no sidecar) ends in
    exit 0/2/3/4/5, with no exception out of ``main``."""
    command, document = case
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "input.json"
        source.write_text(json.dumps(document))
        code, err = _exit_code([command[0], str(source), *command[1:]])
    assert code in (0, 2, 3, 4, 5), err
    assert "Traceback" not in err
