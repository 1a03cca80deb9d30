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


# The README's three-state matrix with a -0.0, which the system file spells "-0".
THREE_STATE_ROWS = [[-2.0, -0.0, 2.0], [1.0, -3.0, 2.0], [1.0, 3.0, -4.0]]


def _loaded_bits(system):
    matrix, diag, gs, digest = load_system_document(system)
    arrays = (matrix, gs.onsager, gs.hessian, diag.transform, diag.eigenvalues,
              gs.equilibrium, np.array(diag.residual))
    return [a.tobytes() for a in arrays], digest


@pytest.mark.parametrize("rows", [
    THREE_STATE_ROWS,  # the JSON route reads its "-0" as +0.0
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
        assert text.count("[-2, -0, 2]") == 1
        system.write_text(text.replace("[-2, -0, 2]", "[-3, -0, 2]"))
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
    ("dim", 7, 3),
    ("matrix", {"dim": 2, "rows": [[-2, 0], [1, -3]]}, 3),
], ids=["residual-nan", "residual-inf", "residual-string", "residual-bool",
        "equilibrium-strings", "eigenvalue-inf", "matrix-string", "dim-7", "matrix-2x2"])
def test_malformed_system_fields_exit_2_or_3(tmp_path, capsys, key, value, code):
    """A non-number or non-finite field is a parse error (2) and a dimension
    that disagrees with the blocks a dimension error (3), on either route."""
    doc = json.loads(_synthesize(tmp_path, THREE_STATE_ROWS).read_text())
    doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
    capsys.readouterr()
    for command in (["verify", str(bad)], ["convexity", str(bad), "--samples", "10"]):
        assert main(command) == code
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("rows", ["[[1" + "0" * 400 + "]]", "[[true]]", '[["1"]]', "[[null]]"],
                         ids=["int-beyond-double", "bool", "string", "null"])
def test_matrix_entries_must_be_finite_numbers(tmp_path, capsys, rows):
    source = tmp_path / "a.json"
    source.write_text('{"dim": 1, "rows": ' + rows + "}")
    assert main(["analyze", str(source)]) == 2
    assert "Traceback" not in capsys.readouterr().err
