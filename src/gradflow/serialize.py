"""File interchange for the command-line front end.

Matrices travel as JSON ``{"dim": d, "rows": [[...], ...]}`` (row-major);
generator files additionally declare ``"convention": "transposed"`` and are
refused without it.  Synthesized systems bundle every object in one JSON
document.  Trajectories are CSV with header ``t,x1,...,xd``.  All
floating-point output is rendered with 17 significant digits so doubles
round-trip exactly, and reports are emitted deterministically (stable key
order, no locale dependence).
"""

from __future__ import annotations

import datetime
import hashlib
import json
from pathlib import Path

import numpy as np

from .spectral import Diagonalisation
from .synthesis import CanonicalGradientSystem

SCHEMA_VERSION = "1"

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "gradflow report",
    "type": "object",
    "required": ["schema_version", "command", "inputs_digest", "results", "warnings"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {
            "enum": ["analyze", "synthesize", "verify", "simulate",
                     "convexity", "markov"],
        },
        "generated_at": {"type": "string"},
        "inputs_digest": {"type": "string"},
        "options": {"type": "object"},
        "results": {"type": "object"},
        "warnings": {"type": "array", "items": {"type": "string"}},
    },
    "additionalProperties": False,
}


class InputFormatError(ValueError):
    """Input file is malformed (bad JSON, missing fields, wrong types)."""


class InputDimensionError(ValueError):
    """Input parses but its dimensions are inconsistent."""


_INDENT = "  "


def _float_row(row, sep: str) -> str:
    """The entries of a 1-D float array at 17 significant digits, ``sep``-joined."""
    return sep.join(["%.17g"] * len(row)) % tuple(row)


def render_json(value) -> str:
    """Deterministic JSON with floats at 17 significant digits.

    The standard encoder cannot hook float formatting, so this walks the
    structure directly.  Dict key order is preserved (callers build reports
    with a fixed field order); only JSON-representable types plus numpy
    scalars and arrays are accepted.  Objects and lists put one item per
    line, indented by two spaces per level.  A float ``ndarray`` is
    rendered a row at a time: a 1-D array is one line ``[a, b, c]``, and an
    n-D array puts each innermost row on its own line.  Non-finite floats
    raise ``ValueError``.
    """
    pieces: list[str] = []

    def emit_items(items, depth: int, emit_item) -> None:
        if not items:
            pieces.append("[]")
            return
        inner = _INDENT * (depth + 1)
        pieces.append("[\n")
        for i, item in enumerate(items):
            pieces.append(inner)
            emit_item(item, depth + 1)
            pieces.append(",\n" if i + 1 < len(items) else "\n")
        pieces.append(_INDENT * depth + "]")

    def emit_array(array: np.ndarray, depth: int) -> None:
        if array.ndim == 1:
            pieces.append("[" + _float_row(array, ", ") + "]")
        else:
            emit_items(list(array), depth, emit_array)

    def emit(node, depth: int) -> None:
        if node is None:
            pieces.append("null")
        elif isinstance(node, (bool, np.bool_)):
            pieces.append("true" if node else "false")
        elif isinstance(node, (int, np.integer)):
            pieces.append(str(int(node)))
        elif isinstance(node, (float, np.floating)):
            x = float(node)
            if not np.isfinite(x):
                raise ValueError("non-finite float in JSON document")
            pieces.append(format(x, ".17g"))
        elif isinstance(node, str):
            pieces.append(json.dumps(node))
        elif isinstance(node, np.ndarray) and node.dtype.kind == "f" and node.ndim:
            if not np.isfinite(node).all():
                raise ValueError("non-finite float in JSON document")
            emit_array(node, depth)
        elif isinstance(node, np.ndarray):
            emit(node.tolist(), depth)
        elif isinstance(node, (list, tuple)):
            emit_items(list(node), depth, emit)
        elif isinstance(node, dict):
            if not node:
                pieces.append("{}")
                return
            inner = _INDENT * (depth + 1)
            pieces.append("{\n")
            keys = list(node)
            for i, key in enumerate(keys):
                if not isinstance(key, str):
                    raise TypeError(f"JSON object keys must be strings, got {key!r}")
                pieces.append(inner + json.dumps(key) + ": ")
                emit(node[key], depth + 1)
                pieces.append(",\n" if i + 1 < len(keys) else "\n")
            pieces.append(_INDENT * depth + "}")
        else:
            raise TypeError(f"cannot serialize {type(node).__name__}")

    emit(value, 0)
    return "".join(pieces)


def file_digest(path) -> str:
    """sha256 hex digest of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON ({exc})") from exc


def _matrix_from_block(block, what: str) -> np.ndarray:
    if not isinstance(block, dict) or "dim" not in block or "rows" not in block:
        raise InputFormatError(f"{what}: expected an object with dim and rows")
    dim = block["dim"]
    rows = block["rows"]
    if not isinstance(dim, int) or dim <= 0:
        raise InputFormatError(f"{what}: dim must be a positive integer")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputFormatError(f"{what}: rows must be a list of lists")
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise InputDimensionError(
            f"{what}: rows do not form a {dim}x{dim} matrix")
    try:
        matrix = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{what}: non-numeric entry ({exc})") from exc
    if not np.all(np.isfinite(matrix)):
        raise InputFormatError(f"{what}: entries must be finite")
    return matrix


def matrix_block(matrix: np.ndarray) -> dict:
    return {"dim": int(matrix.shape[0]), "rows": matrix}


def load_matrix_document(path) -> np.ndarray:
    """Read a ``{"dim", "rows"}`` JSON matrix file."""
    return _matrix_from_block(_load_json(path), str(path))


def load_generator_document(path) -> np.ndarray:
    """Read a generator file; refuses input without the convention marker."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or doc.get("convention") != "transposed":
        raise InputFormatError(
            f'{path}: generator files must declare "convention": "transposed"')
    return _matrix_from_block(doc, str(path))


def system_document(matrix: np.ndarray, diag: Diagonalisation,
                    gs: CanonicalGradientSystem) -> dict:
    """Bundle a synthesized system into one JSON-ready document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "gradient-system",
        "dim": int(matrix.shape[0]),
        "matrix": matrix_block(matrix),
        "onsager": matrix_block(gs.onsager),
        "hessian": matrix_block(gs.hessian),
        "equilibrium": gs.equilibrium,
        "transform": matrix_block(diag.transform),
        "eigenvalues": diag.eigenvalues,
        "residual": float(diag.residual),
    }


def save_system_document(path, document: dict) -> None:
    Path(path).write_text(render_json(document) + "\n", encoding="utf-8")


def load_system_document(path):
    """Read a system file back into ``(matrix, diagonalisation, system)``."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or doc.get("kind") != "gradient-system":
        raise InputFormatError(f"{path}: not a gradient-system document")
    where = str(path)
    matrix = _matrix_from_block(doc.get("matrix"), where + " matrix")
    onsager = _matrix_from_block(doc.get("onsager"), where + " onsager")
    hessian = _matrix_from_block(doc.get("hessian"), where + " hessian")
    transform = _matrix_from_block(doc.get("transform"), where + " transform")
    try:
        equilibrium = np.array(doc["equilibrium"], dtype=float)
        eigenvalues = np.array(doc["eigenvalues"], dtype=float)
        residual = float(doc["residual"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"{where}: bad system fields ({exc})") from exc
    try:
        diag = Diagonalisation(transform, eigenvalues, residual)
        gs = CanonicalGradientSystem(onsager, hessian, equilibrium)
    except ValueError as exc:
        raise InputDimensionError(f"{where}: inconsistent system ({exc})") from exc
    return matrix, diag, gs


def write_trajectory_csv(path, trajectory) -> None:
    """CSV with header ``t,x1,...,xd``, one row per node, 17 significant digits."""
    dim = trajectory.states.shape[1]
    lines = ["t," + ",".join(f"x{i + 1}" for i in range(dim))]
    table = np.column_stack((trajectory.times, trajectory.states))
    lines.extend(_float_row(row, ",") for row in table)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_report(command: str, inputs_digest: str, options: dict,
                 results: dict, warnings=()) -> dict:
    """Assemble a report; ``generated_at`` is excluded from any digesting."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "generated_at": datetime.datetime.now(datetime.timezone.utc)
                        .replace(microsecond=0).isoformat(),
        "inputs_digest": inputs_digest,
        "options": options,
        "results": results,
        "warnings": [str(w) for w in warnings],
    }
