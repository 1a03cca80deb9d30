"""Command-line front end tests: exit codes, schemas, determinism, formats."""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gradflow import cli
from gradflow.cli import main
from gradflow.serialize import REPORT_SCHEMA, load_system_document
from gradflow import nonreversible_three_state, reversible_three_state

from conftest import make_diagonalisation

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
    tmp_path, write = workdir
    code, report, err = run(capsys, "synthesize", write("j.json", JORDAN_DOC),
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
    jsonschema.validate(report, REPORT_SCHEMA)


def test_convexity_command_reports_certificates(workdir, capsys):
    tmp_path, write = workdir
    out = str(tmp_path / "system.json")
    run(capsys, "synthesize", write("a.json", THREE_STATE_DOC), "--out", out)
    code, report, _ = run(capsys, "convexity", out, "--samples", "200")
    assert code == 0
    results = report["results"]
    assert results["monotonicity_violation"] == 0.0
    assert results["geodesic_violation"] <= 1e-9
    assert results["contraction_violation"] <= 1e-9
    assert results["spectrum_nonpositive"] is True
    assert report["options"]["seed"] == 0
    jsonschema.validate(report, REPORT_SCHEMA)


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
    code, report, _ = run(capsys, "markov", gen, "entropic-verify",
                          "--samples", "100")
    assert code == 0
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


def test_markov_requires_convention_marker(workdir, capsys):
    _, write = workdir
    gen = write("gen.json", {"dim": 3,
                             "rows": reversible_three_state().matrix.tolist()})
    code, _, err = run(capsys, "markov", gen, "validate")
    assert code == 2
    assert "convention" in err


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


def test_memory_error_exits_5(workdir, capsys, monkeypatch):
    _, write = workdir

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_analyze", exhausted)
    code, report, err = run(capsys, "analyze", write("a.json", THREE_STATE_DOC))
    assert code == 5 and report is None
    assert "gradflow: numeric failure: MemoryError" in err


# T = 1e160 I diagonalises diag(-1, 0), but |T|^2 is beyond the double range.
LARGE_NORM_SYSTEM = {
    "kind": "gradient-system", "dim": 2,
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
def test_large_norm_transform_exits_5_without_traceback(workdir, capsys, argv):
    tmp_path, write = workdir
    system = write("big.json", LARGE_NORM_SYSTEM)
    assert run(capsys, "verify", system)[0] == 0
    argv = [argv[0], system, *argv[1:]]
    if argv[0] == "simulate":
        argv += ["--out", str(tmp_path / "t.csv")]
    code, report, err = run(capsys, *argv)
    assert code == 5 and report is None
    assert "numeric failure" in err and "Traceback" not in err
    assert not (tmp_path / "t.csv").exists()


def test_ill_conditioned_transform_exits_5_without_out_file(workdir, capsys, rng):
    tmp_path, write = workdir
    planted = make_diagonalisation(rng, 6, cond=1e6)
    matrix = write("a.json", {"dim": 6, "rows": planted.reconstruct().tolist()})
    system = tmp_path / "system.json"
    code, report, err = run(capsys, "synthesize", matrix, "--out", str(system))
    assert code == 5 and report is None
    assert "transform too ill-conditioned" in err and "Traceback" not in err
    assert not system.exists()
    assert not (tmp_path / "system.json.cache").exists()


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
    assert "gradflow: parse error" in err and "Traceback" not in err
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


@pytest.mark.parametrize("command, expected", [
    ("analyze", {"eig": 1, "svd": 1, "inv": 1}),
    ("synthesize", {"eig": 1, "svd": 1, "eigvalsh": 1, "inv": 2}),
    ("verify", {"svd": 1, "eigvalsh": 1}),
    ("convexity", {"svd": 1, "eigvalsh": 1}),
    ("simulate-pair", {"svd": 1, "eigvalsh": 1, "inv": 1}),
    ("simulate-rk4", {"svd": 1, "eigvalsh": 1}),
    ("simulate-mm", {"svd": 1, "eigvalsh": 1, "inv": 1, "eigh": 1}),
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
    the only ``eigvalsh`` is the system's semi-definiteness check.  rk4
    adds nothing (its step advisory reads the Frobenius norm), mm one
    ``eigh`` of its modal operator, which gives every step in closed form
    and its definiteness test.  A chain's one SVD gives its stationary
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


FUZZ_ARGV = st.one_of(
    st.sampled_from([["analyze", "{matrix}"],
                     ["synthesize", "{matrix}", "--out", "{system}"],
                     ["verify", "{system}"],
                     ["convexity", "{system}", "--samples", "5"]]),
    st.sampled_from(["exact", "rk4", "mm"]).map(
        lambda method: ["simulate", "{system}", "--x0", "{x0}", "--t-end", "1",
                        "--method", method, "--step", "0.5", "--out", "{csv}"]),
    st.sampled_from(["validate", "stationary", "reversible", "entropic-verify"]).map(
        lambda sub: ["markov", "{generator}", sub, "--samples", "5"]),
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
