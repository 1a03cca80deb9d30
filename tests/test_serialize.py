"""Serialization: exact round-trips of doubles and the row-per-line layout."""

import hashlib
import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from gradflow import synthesize_canonical
from gradflow.cli import main
from gradflow.serialize import (
    _SYSTEM_FIELDS,
    json_pieces,
    load_system_document,
    render_json,
    save_system_document,
    write_text,
    write_trajectory_csv,
)

from conftest import make_diagonalisation

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1e-310, 1.7e308, -1.7e308, 1.7976931348623157e308, 0.1]
DOUBLES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_VALUES)


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
                  elements=DOUBLES))
def test_float_arrays_roundtrip_bit_for_bit(tmp_path_factory, array):
    # JSON has one number type; reading every literal as a double keeps the
    # sign of "-0", which Python's default int decoding drops.
    loaded = json.loads(render_json({"a": array}), parse_int=float)["a"]
    assert same_bits(loaded, array)

    states = np.atleast_2d(array)
    trajectory = SimpleNamespace(times=states[:, 0].copy(), states=states)
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_trajectory_csv(path, trajectory)
    rows = [[float(v) for v in line.split(",")]
            for line in path.read_text().splitlines()[1:]]
    assert same_bits([row[0] for row in rows], trajectory.times)
    assert same_bits([row[1:] for row in rows], states)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_in_matrix_raises(bad):
    matrix = np.eye(3)
    matrix[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        render_json({"rows": matrix})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_state_in_csv_raises_and_leaves_no_file(tmp_path, bad):
    """The CSV rows go through the same finite check as the JSON: the bad
    value sits in the last row, after earlier rows went to the temporary file."""
    states = np.ones((3, 2))
    states[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        write_trajectory_csv(tmp_path / "t.csv",
                             SimpleNamespace(times=np.arange(3.0), states=states))
    assert list(tmp_path.iterdir()) == []


_BLOCK = np.array([[0.1, -0.0, 1e22], [5e-324, -1.7e308, 2.0 / 3.0]])
LAYOUTS = {
    "transposed": _BLOCK.T,
    "fortran-ordered": np.asfortranarray(_BLOCK),
    "strided-column": _BLOCK[:, 1],
    "float32": _BLOCK[0].astype(np.float32),
    "0-d": np.array(2.0 / 3.0),
    "empty": np.empty((0, 3)),
}


@pytest.mark.parametrize("array", LAYOUTS.values(), ids=LAYOUTS)
def test_every_array_layout_round_trips_bit_for_bit(tmp_path, array):
    """orjson takes only C-contiguous float64 rows; LAPACK hands back
    Fortran-ordered blocks, and callers pass views and other float types."""
    loaded = json.loads(render_json({"a": array}), parse_int=float)["a"]
    assert same_bits(loaded, array)

    states = np.atleast_2d(array)
    trajectory = SimpleNamespace(times=states[:, 0], states=states)
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, trajectory)
    rows = [[float(v) for v in line.split(",")]
            for line in path.read_text().splitlines()[1:]]
    assert same_bits([row[0] for row in rows], trajectory.times)
    assert same_bits([row[1:] for row in rows], states)


@given(DOUBLES)
def test_a_float_is_spelled_alike_alone_and_in_a_row(x):
    alone = render_json(x)
    assert render_json(np.float64(x)) == alone
    assert render_json(np.array([x, x])) == f"[{alone},{alone}]"
    assert float(alone) == x and np.signbit(float(alone)) == np.signbit(x)


@pytest.mark.parametrize("value", [
    [],
    {},
    np.array(0.1),
    np.array([[1.0, -0.0], [5e-324, 1.7e308]]),
    {"a": {"b": [1, 2.5, None, True, "x\u00e9"], "c": {}}, "d": np.arange(3)},
], ids=["empty-list", "empty-dict", "0-d-array", "2-d-array", "nested-dicts"])
def test_json_pieces_join_to_render_json(value):
    text = render_json(value)
    assert "".join(json_pieces(value)) == text
    assert json.loads(text) == json.loads(json.dumps(value, default=np.ndarray.tolist))


def test_write_text_returns_the_digest_of_the_bytes_on_disk(tmp_path):
    path = tmp_path / "out.txt"
    digest = write_text(path, iter(["gradflow ", "\u2207F ", "", "caf\u00e9\n"]))
    data = path.read_bytes()
    assert data == "gradflow \u2207F caf\u00e9\n".encode("utf-8")
    assert digest == hashlib.sha256(data).hexdigest()


def test_write_text_keeps_a_file_mode_and_writes_through_a_symlink(tmp_path):
    """A regular target is replaced by a whole temporary file that takes its
    mode; a symlink is written through in place, so the link survives."""
    target = tmp_path / "target.txt"
    target.write_text("earlier\n")
    target.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_text(target, ["first\n"])
    assert target.read_text() == "first\n" and target.stat().st_mode & 0o777 == 0o640
    write_text(link, ["second\n"])
    assert link.is_symlink() and target.read_text() == "second\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


def test_system_file_is_written_without_a_whole_copy_in_memory(tmp_path, rng):
    """The document streams to disk a row at a time: the traced peak stays
    below half the file, where rendering it whole would hold several copies."""
    diag = make_diagonalisation(rng, 200, cond=100.0)
    matrix = diag.reconstruct()
    gs = synthesize_canonical(diag)
    path = tmp_path / "system.json"
    tracemalloc.start()
    try:
        save_system_document(path, matrix, diag, gs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 3_000_000
    assert peak < size / 2
    header = _sidecar(path).read_bytes().split(b"\n", 1)[0].split(b" ")
    assert header[1].decode() == hashlib.sha256(path.read_bytes()).hexdigest()


def test_system_file_has_one_line_per_matrix_row(tmp_path, capsys):
    source = tmp_path / "a.json"
    source.write_text(json.dumps({"dim": 3, "rows": [[-2, 0, 2], [1, -3, 2], [1, 3, -4]]}))
    out = tmp_path / "system.json"
    assert main(["synthesize", str(source), "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    doc = json.loads(text)
    row_lines = [line.strip().rstrip(",") for line in text.splitlines()
                 if line.strip().startswith("[")]
    expected = [row for key in ("matrix", "onsager", "hessian", "transform")
                for row in doc[key]["rows"]]
    assert [json.loads(line) for line in row_lines] == expected
    for key in ("equilibrium", "eigenvalues"):
        (line,) = [line for line in text.splitlines() if f'"{key}": [' in line]
        assert json.loads(line.split(": ", 1)[1].rstrip(",")) == doc[key]


def _synthesize(tmp_path, rows, name="system.json"):
    source = tmp_path / (name + ".matrix")
    source.write_text(json.dumps({"dim": len(rows), "rows": rows}))
    system = tmp_path / name
    assert main(["synthesize", str(source), "--out", str(system)]) == 0
    return system


def _sidecar(system):
    return Path(str(system) + ".cache")


def _outputs(capsys, argv):
    """``(exit code, stdout without its generated_at line)`` of one command."""
    code = main(argv)
    out = capsys.readouterr().out
    return code, "".join(line for line in out.splitlines(keepends=True)
                         if '"generated_at"' not in line)


# The README's three-state matrix with a -0.0, which the system file spells "-0.0".
THREE_STATE_ROWS = [[-2.0, -0.0, 2.0], [1.0, -3.0, 2.0], [1.0, 3.0, -4.0]]


def _loaded_bits(system):
    """The bytes of each loaded record's array, in ``_SYSTEM_FIELDS`` order."""
    matrix, diag, gs, digest = load_system_document(system)
    arrays = {"matrix": matrix, "transform": diag.transform, "eigenvalues": diag.eigenvalues,
              "residual": np.array(diag.residual), "onsager": gs.onsager,
              "hessian": gs.hessian, "equilibrium": gs.equilibrium}
    return [arrays[name].tobytes() for name, _ in _SYSTEM_FIELDS], digest


def _reversed_keys(value):
    if isinstance(value, dict):
        return {key: _reversed_keys(value[key]) for key in reversed(value)}
    return value


def test_system_json_is_read_by_key(tmp_path, capsys):
    """Every key of the system file, nested ones too, in reverse order:
    the JSON route loads the same bits."""
    system = _synthesize(tmp_path, THREE_STATE_ROWS)
    capsys.readouterr()
    _sidecar(system).unlink()
    doc = json.loads(system.read_text())
    reordered = tmp_path / "reordered.json"
    reordered.write_text(json.dumps(_reversed_keys(doc)))
    assert list(json.loads(reordered.read_text())) == list(reversed(doc))
    assert _loaded_bits(reordered)[0] == _loaded_bits(system)[0]


def test_sidecar_body_is_the_fields_in_table_order(tmp_path, capsys):
    """The sidecar is its header, then each field's doubles as the JSON
    route reads them, in ``_SYSTEM_FIELDS`` order."""
    rows = make_diagonalisation(np.random.default_rng(5), 12, cond=50.0).reconstruct()
    system = _synthesize(tmp_path, rows.tolist())
    capsys.readouterr()
    header, _, body = _sidecar(system).read_bytes().partition(b"\n")
    _sidecar(system).unlink()
    bits, digest = _loaded_bits(system)
    assert digest == hashlib.sha256(system.read_bytes()).hexdigest()
    assert header == b"gradflow-system-cache %s 12" % digest.encode()
    assert body == b"".join(bits)


@pytest.mark.parametrize("rows", [
    THREE_STATE_ROWS,  # the loader reads its "-0.0" as +0.0 on both routes
    make_diagonalisation(np.random.default_rng(5), 12, cond=50.0).reconstruct().tolist(),
], ids=["three-state-negative-zero", "random-d12"])
def test_sidecar_and_json_routes_agree(tmp_path, capsys, rows):
    system = _synthesize(tmp_path, rows)
    capsys.readouterr()
    data = _sidecar(system).read_bytes()
    start = data.index(b"\n") + 1
    stored = np.frombuffer(data, dtype="<f8", offset=start)
    assert stored.size == 4 * len(rows) ** 2 + 2 * len(rows) + 1
    # the sidecar keeps every sign, -0.0 included
    assert np.array_equal(np.signbit(stored[:len(rows) ** 2]), np.signbit(rows).ravel())
    x0 = ",".join(["1"] + ["0"] * (len(rows) - 1))
    x1 = ",".join(["0", "1"] + ["0"] * (len(rows) - 2))
    simulate = ["simulate", str(system), "--x0", x0, "--t-end", "1",
                "--out", str(tmp_path / "t.csv")]
    commands = {
        "verify": ["verify", str(system)],
        "convexity": ["convexity", str(system), "--samples", "50"],
        "simulate-pair": simulate + ["--x0", x1],
        "simulate-rk4": simulate + ["--method", "rk4", "--step", "0.1"],
        "simulate-mm": simulate + ["--method", "mm", "--step", "0.1"],
    }
    results = {}
    for route in ("sidecar", "json"):
        if route == "json":
            _sidecar(system).unlink()
        results[route] = {"load": _loaded_bits(system)}
        for name, argv in commands.items():
            code, report = _outputs(capsys, argv)
            assert code == 0
            csv = (tmp_path / "t.csv").read_bytes() if name.startswith("sim") else None
            results[route][name] = report, csv
    assert not _sidecar(system).exists()  # read commands never write one
    assert results["sidecar"] == results["json"]


def _with_digest(sidecar: bytes, system) -> bytes:
    """``sidecar``'s arrays under a header naming the digest of ``system``."""
    header, _, body = sidecar.partition(b"\n")
    magic, _, dim = header.split(b" ")
    digest = hashlib.sha256(system.read_bytes()).hexdigest().encode()
    return b" ".join((magic, digest, dim)) + b"\n" + body


@pytest.mark.parametrize("spelling", ["-0.0", "-0"], ids=["shortest", "17-digit"])
def test_negative_zero_loads_as_positive_zero_on_both_routes(tmp_path, capsys, spelling):
    """A system file spells the -0.0 of its matrix as "-0.0"; files written
    at 17 significant digits spell it "-0".  The sidecar keeps its sign bit."""
    system = _synthesize(tmp_path, THREE_STATE_ROWS)
    capsys.readouterr()
    system.write_text(system.read_text().replace("[-2.0,-0.0,2.0]", f"[-2.0,{spelling},2.0]"))
    _sidecar(system).write_bytes(_with_digest(_sidecar(system).read_bytes(), system))
    for route in ("sidecar", "json"):
        if route == "json":
            _sidecar(system).unlink()
        matrix = load_system_document(system)[0]
        assert matrix[0, 1] == 0.0 and not np.signbit(matrix[0, 1]), route


def test_sidecar_carrying_the_json_digest_is_trusted(tmp_path, capsys):
    """The trust rule: a sidecar counts when it names the digest of the JSON
    beside it, so it is read in place of that JSON."""
    system = _synthesize(tmp_path, THREE_STATE_ROWS)
    other = _synthesize(tmp_path, (2.0 * np.array(THREE_STATE_ROWS)).tolist(), "other.json")
    capsys.readouterr()
    _sidecar(system).write_bytes(_with_digest(_sidecar(other).read_bytes(), system))
    code, report = _outputs(capsys, ["convexity", str(system), "--samples", "10"])
    _, expected = _outputs(capsys, ["convexity", str(other), "--samples", "10"])
    assert code == 0
    digest = hashlib.sha256
    assert report == expected.replace(digest(other.read_bytes()).hexdigest(),
                                      digest(system.read_bytes()).hexdigest())


@pytest.mark.parametrize("damage", ["stale", "truncated", "wrong-size", "foreign",
                                    "non-finite"])
def test_bad_sidecar_is_ignored(tmp_path, capsys, damage):
    """Each damaged sidecar would change the results if it were read."""
    system = _synthesize(tmp_path, THREE_STATE_ROWS)
    other = _synthesize(tmp_path, (2.0 * np.array(THREE_STATE_ROWS)).tolist(), "other.json")
    capsys.readouterr()
    poisoned = _with_digest(_sidecar(other).read_bytes(), system)
    if damage == "stale":  # one digit of the JSON edited after the sidecar was written
        text = system.read_text()
        assert text.count("[-2.0,-0.0,2.0]") == 1
        system.write_text(text.replace("[-2.0,-0.0,2.0]", "[-3.0,-0.0,2.0]"))
    elif damage == "truncated":
        _sidecar(system).write_bytes(poisoned[:-8])
    elif damage == "wrong-size":
        _sidecar(system).write_bytes(poisoned + bytes(8))
    elif damage == "foreign":
        _sidecar(system).write_bytes(_sidecar(other).read_bytes())
    else:  # a nan residual, which no JSON file can spell
        _sidecar(system).write_bytes(poisoned[:-8] + np.float64(np.nan).tobytes())
    commands = [["verify", str(system)], ["convexity", str(system), "--samples", "10"]]
    with_sidecar = [_outputs(capsys, argv) for argv in commands]
    _sidecar(system).unlink()
    assert with_sidecar == [_outputs(capsys, argv) for argv in commands]
    assert with_sidecar[0][0] == 0
    assert ('"passed": false' in with_sidecar[0][1]) == (damage == "stale")


def test_unwritable_sidecar_does_not_fail_synthesize(tmp_path, capsys):
    _sidecar(tmp_path / "system.json").mkdir()
    system = _synthesize(tmp_path, THREE_STATE_ROWS)
    code, report = _outputs(capsys, ["verify", str(system)])
    assert code == 0 and '"passed": true' in report


@pytest.mark.parametrize("key, value, code", [
    ("residual", float("nan"), 2),
    ("residual", float("inf"), 2),
    ("residual", "0.1", 2),
    ("residual", True, 2),
    ("equilibrium", ["0", "0", "0"], 2),
    ("eigenvalues", [float("-inf"), -3.0, 0.0], 2),
    ("matrix", {"dim": 3, "rows": [[-2, "0", 2], [1, -3, 2], [1, 3, -4]]}, 2),
    ("matrix", [[-2, 0, 2], [1, -3, 2], [1, 3, -4]], 2),
    ("onsager", {"dim": 0, "rows": []}, 2),
    ("hessian", {"dim": 3, "rows": "[[1]]"}, 2),
    ("equilibrium", 0.0, 2),
    ("residual", [0.0], 2),
    ("dim", 0, 2),
    ("dim", 7, 3),
    ("matrix", {"dim": 2, "rows": [[-2, 0], [1, -3]]}, 3),
    ("hessian", {"dim": 3, "rows": [[1, 2, 0], [0, 1, 0], [0, 0, 1]]}, 4),
    ("onsager", {"dim": 3, "rows": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}, 4),
    ("transform", {"dim": 3, "rows": [[1, 0, 0], [1, 0, 0], [0, 0, 1]]}, 4),
    ("residual", -1, 4),
], ids=["residual-nan", "residual-inf", "residual-string", "residual-bool",
        "equilibrium-strings", "eigenvalue-inf", "matrix-string", "matrix-bare-rows",
        "onsager-dim-0", "hessian-rows-string", "equilibrium-number", "residual-list",
        "dim-0", "dim-7", "matrix-2x2",
        "hessian-asymmetric", "onsager-indefinite", "transform-singular",
        "residual-negative"])
def test_malformed_system_fields_exit_2_or_3(tmp_path, capsys, key, value, code):
    """A non-number or non-finite field is a parse error (2), a dimension
    that disagrees with the blocks a dimension error (3), and records whose
    sizes agree but which fail their own checks a failed precondition (4):
    the file is not a gradient system."""
    doc = json.loads(_synthesize(tmp_path, THREE_STATE_ROWS).read_text())
    doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
    capsys.readouterr()
    label = {2: "parse error", 3: "dimension error", 4: "precondition failed"}[code]
    for command in (["verify", str(bad)], ["convexity", str(bad), "--samples", "10"]):
        assert main(command) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"gradflow: {label}: {bad}")
        assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("version, named", [
    ({"x": [1]}, '{"x": [1]}'), ("2", '"2"'), (None, "null"), ("missing", "missing"),
], ids=["object", "2", "null", "missing"])
def test_unknown_schema_version_exits_2(tmp_path, capsys, version, named):
    """Only the ``schema_version`` this reader knows is read; any other value,
    or none, is a parse error that names what the file holds."""
    doc = json.loads(_synthesize(tmp_path, THREE_STATE_ROWS).read_text())
    if version == "missing":
        del doc["schema_version"]
    else:
        doc["schema_version"] = version
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f'gradflow: parse error: {bad}: schema_version {named}, expected "1"\n'


def test_sidecar_records_that_fail_their_checks_exit_4(tmp_path, capsys):
    """The sidecar route builds the records through the same checks as the
    JSON: an asymmetric hessian under the JSON's own digest exits 4."""
    system = _synthesize(tmp_path, THREE_STATE_ROWS)
    data = _sidecar(system).read_bytes()
    end = data.index(b"\n") + 1
    body = np.frombuffer(data, dtype="<f8", offset=end).copy()
    body[2 * 9 + 1] += 1.0  # hessian[0, 1]: matrix and onsager come first
    _sidecar(system).write_bytes(data[:end] + body.tobytes())
    capsys.readouterr()
    for command in (["verify", str(system)], ["convexity", str(system), "--samples", "10"]):
        assert main(command) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "gradflow: precondition failed:" in captured.err
        assert "hessian must be symmetric" in captured.err
    _sidecar(system).unlink()
    assert main(["verify", str(system)]) == 0


@pytest.mark.parametrize("rows", ["[" * 100_000 + "]" * 100_000, "[[1" + "0" * 5000 + "]]"],
                         ids=["nested-100000-deep", "int-of-5001-digits"])
@pytest.mark.parametrize("argv", [["analyze"], ["markov", "stationary"], ["verify"]],
                         ids=["analyze", "markov-stationary", "verify"])
def test_json_that_python_cannot_decode_is_a_parse_error(tmp_path, capsys, argv, rows):
    """Deep nesting exhausts the decoder's recursion limit, and a long integer
    literal its digit limit; neither may escape as a traceback."""
    source = tmp_path / "input.json"
    source.write_text('{"convention": "transposed", "dim": 1, "rows": ' + rows + "}")
    assert main([argv[0], str(source), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gradflow: parse error:" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("value, error", [
    (float("nan"), ValueError), ({1: 0.0}, TypeError), (object(), TypeError)],
    ids=["nan", "integer-key", "object"])
def test_json_pieces_refuse_what_json_cannot_spell(value, error):
    with pytest.raises(error):
        render_json({"results": [value]})


@pytest.mark.parametrize("rows", ["[[1" + "0" * 400 + "]]", "[[true]]", '[["1"]]', "[[null]]"],
                         ids=["int-beyond-double", "bool", "string", "null"])
def test_matrix_entries_must_be_finite_numbers(tmp_path, capsys, rows):
    source = tmp_path / "a.json"
    source.write_text('{"dim": 1, "rows": ' + rows + "}")
    assert main(["analyze", str(source)]) == 2
    assert "Traceback" not in capsys.readouterr().err
