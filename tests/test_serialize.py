"""Serialization: exact round-trips of doubles and the row-per-line layout."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from gradflow.cli import main
from gradflow.serialize import render_json, write_trajectory_csv

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
