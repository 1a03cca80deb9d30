"""File interchange for the command-line front end.

Matrices travel as JSON ``{"dim": d, "rows": [[...], ...]}`` (row-major);
generator files additionally declare ``"convention": "transposed"`` and are
refused without it.  Synthesized systems bundle every object in one JSON
document.  Trajectories are CSV with header ``t,x1,...,xd``.  All
floating-point output is rendered with 17 significant digits so doubles
round-trip exactly, and reports are emitted deterministically (stable key
order, no locale dependence).  Every text file goes out through
:func:`write_text`, which encodes, hashes and writes it a piece at a time.

Beside a system file ``sys.json`` gradflow also writes a binary sidecar
``sys.json.cache``: one header line ``gradflow-system-cache <sha256> <d>``,
then the raw little-endian float64 values of ``matrix``, ``onsager``,
``hessian``, ``transform``, ``eigenvalues``, ``equilibrium`` and
``residual``, ``4 d**2 + 2 d + 1`` doubles in all.  A reader takes the
arrays from the sidecar only when its digest is the sha256 of the JSON
bytes beside it and its size fits ``d``; otherwise it parses the JSON, so
a stale, truncated or foreign sidecar is ignored and a JSON file copied
without one still loads.  The JSON stays the product: it is what
``inputs_digest`` names, and deleting the sidecar is always safe.  Both
routes build the records through the same validation, and the sidecar
holds the same doubles the JSON spells out (``-0`` reads back as ``+0``
on either route), so no result depends on which route ran.
"""

from __future__ import annotations

import datetime
import hashlib
import json
from itertools import chain
from pathlib import Path

import numpy as np

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


def json_pieces(value, depth: int = 0):
    """Deterministic JSON with floats at 17 significant digits, as a stream
    of ``str`` pieces, so a large document need never exist whole.

    The standard encoder cannot hook float formatting, so this walks the
    structure directly.  Dict key order is preserved (callers build reports
    with a fixed field order); only JSON-representable types plus numpy
    scalars and arrays are accepted.  Objects and lists put one item per
    line, indented by two spaces per level.  A float ``ndarray`` is
    rendered a row at a time: a 1-D array is one line ``[a, b, c]``, and an
    n-D array puts each innermost row on its own line.  Non-finite floats
    raise ``ValueError``.
    """
    if value is None:
        yield "null"
    elif isinstance(value, (bool, np.bool_)):
        yield "true" if value else "false"
    elif isinstance(value, (int, np.integer)):
        yield str(int(value))
    elif isinstance(value, (float, np.floating)):
        x = float(value)
        if not np.isfinite(x):
            raise ValueError("non-finite float in JSON document")
        yield format(x, ".17g")
    elif isinstance(value, str):
        yield json.dumps(value)
    elif isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.ndim:
        if not np.isfinite(value).all():
            raise ValueError("non-finite float in JSON document")
        if value.ndim == 1:
            yield "[" + _float_row(value, ", ") + "]"
        else:
            yield from json_pieces(list(value), depth)
    elif isinstance(value, np.ndarray):
        yield from json_pieces(value.tolist(), depth)
    elif isinstance(value, (list, tuple, dict)):
        brackets = "{}" if isinstance(value, dict) else "[]"
        if not value:
            yield brackets
            return
        yield brackets[0] + "\n"
        inner = _INDENT * (depth + 1)
        for i, item in enumerate(value):  # a dict's items are its keys
            if isinstance(value, dict):
                if not isinstance(item, str):
                    raise TypeError(f"JSON object keys must be strings, got {item!r}")
                yield inner + json.dumps(item) + ": "
                item = value[item]
            else:
                yield inner
            yield from json_pieces(item, depth + 1)
            yield ",\n" if i + 1 < len(value) else "\n"
        yield _INDENT * depth + brackets[1]
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def render_json(value) -> str:
    """:func:`json_pieces` joined into one string."""
    return "".join(json_pieces(value))


def _read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _parse_json(data: bytes, path):
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON ({exc})") from exc


def _load_json(path):
    """``(parsed JSON, sha256 digest)`` of one read, so ``--out`` cannot alter the digest."""
    data = _read_bytes(path)
    return _parse_json(data, path), hashlib.sha256(data).hexdigest()


def _floats(values, flat, what: str) -> np.ndarray:
    """JSON ``values`` (``flat`` iterates their entries) as a finite float array.

    Only numbers pass: a string, ``null`` or ``true`` is refused, not
    converted, and so is an entry that is not finite as a double.
    """
    if not set(map(type, flat)) <= {int, float}:
        raise InputFormatError(f"{what}: entries must be numbers")
    try:
        array = np.array(values, dtype=float)
    except OverflowError:  # an integer literal beyond the double range
        raise InputFormatError(f"{what}: entries must be finite") from None
    if not np.all(np.isfinite(array)):
        raise InputFormatError(f"{what}: entries must be finite")
    return array


def _matrix_from_block(block, what: str) -> np.ndarray:
    if not isinstance(block, dict) or "dim" not in block or "rows" not in block:
        raise InputFormatError(f"{what}: expected an object with dim and rows")
    dim = block["dim"]
    rows = block["rows"]
    if type(dim) is not int or dim <= 0:
        raise InputFormatError(f"{what}: dim must be a positive integer")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputFormatError(f"{what}: rows must be a list of lists")
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise InputDimensionError(
            f"{what}: rows do not form a {dim}x{dim} matrix")
    return _floats(rows, chain.from_iterable(rows), what)


def load_matrix_document(path) -> tuple[np.ndarray, str]:
    """Read a ``{"dim", "rows"}`` JSON matrix file: ``(matrix, sha256 digest)``."""
    doc, digest = _load_json(path)
    return _matrix_from_block(doc, str(path)), digest


def load_generator_document(path) -> tuple[np.ndarray, str]:
    """Read a generator file, refused without the convention marker: ``(matrix, digest)``."""
    doc, digest = _load_json(path)
    if not isinstance(doc, dict) or doc.get("convention") != "transposed":
        raise InputFormatError(
            f'{path}: generator files must declare "convention": "transposed"')
    return _matrix_from_block(doc, str(path)), digest


def write_text(path, pieces) -> str:
    """Write the ``str`` pieces to ``path`` as UTF-8, encoding and hashing
    one piece at a time, and return the sha256 hex digest of the bytes
    written; an unwritable path is an input error."""
    digest = hashlib.sha256()
    try:
        with open(path, "wb") as fh:
            for piece in pieces:
                data = piece.encode("utf-8")
                digest.update(data)
                fh.write(data)
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from exc
    return digest.hexdigest()


_SIDECAR_MAGIC = b"gradflow-system-cache"
_SYSTEM_MATRICES = ("matrix", "onsager", "hessian", "transform")
_SYSTEM_VECTORS = ("eigenvalues", "equilibrium")


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".cache")


def save_system_document(path, matrix: np.ndarray, diag: Diagonalisation,
                         gs: CanonicalGradientSystem) -> None:
    """The one writer of the system-file layout: the records as one JSON
    document, then its sidecar, which holds the same arrays in the order
    :func:`_read_sidecar` splits them.  A sidecar that cannot be written is
    left out, since the JSON file is the product."""
    dim = int(matrix.shape[0])
    document = {
        "schema_version": SCHEMA_VERSION,
        "kind": "gradient-system",
        "dim": dim,
        "matrix": {"dim": dim, "rows": matrix},
        "onsager": {"dim": dim, "rows": gs.onsager},
        "hessian": {"dim": dim, "rows": gs.hessian},
        "equilibrium": gs.equilibrium,
        "transform": {"dim": dim, "rows": diag.transform},
        "eigenvalues": diag.eigenvalues,
        "residual": float(diag.residual),
    }
    digest = write_text(path, chain(json_pieces(document), ["\n"]))
    header = b"%s %s %d\n" % (_SIDECAR_MAGIC, digest.encode(), dim)
    # _SYSTEM_MATRICES, then _SYSTEM_VECTORS, then the residual
    arrays = (matrix, gs.onsager, gs.hessian, diag.transform,
              diag.eigenvalues, gs.equilibrium, np.array([diag.residual]))
    try:
        with open(_sidecar_path(path), "wb") as fh:
            fh.write(header)
            for array in arrays:
                np.asarray(array, dtype="<f8").tofile(fh)
    except OSError:
        pass


def _read_sidecar(path, digest: str):
    """The seven system arrays from the sidecar of ``path`` if it carries
    ``digest`` and holds exactly ``4 d**2 + 2 d + 1`` finite doubles, else
    ``None``."""
    try:
        data = _sidecar_path(path).read_bytes()
    except OSError:
        return None
    end = data.find(b"\n", 0, 256)
    fields = data[:end].split(b" ") if end > 0 else []
    if (len(fields) != 3 or fields[0] != _SIDECAR_MAGIC or fields[1] != digest.encode()
            or not fields[2].isdigit()):
        return None
    dim = int(fields[2])
    sizes = [dim * dim] * len(_SYSTEM_MATRICES) + [dim] * len(_SYSTEM_VECTORS) + [1]
    if dim == 0 or len(data) - end - 1 != 8 * sum(sizes):
        return None
    body = np.frombuffer(data, dtype="<f8", offset=end + 1)
    if not np.all(np.isfinite(body)):
        return None
    # + 0.0: fresh arrays, and -0.0 becomes the +0.0 that the JSON's "-0" reads as
    *matrices, eigenvalues, equilibrium, residual = (
        part + 0.0 for part in np.split(body, np.cumsum(sizes)[:-1]))
    return ([m.reshape(dim, dim) for m in matrices]
            + [eigenvalues, equilibrium, float(residual[0])])


def _parse_system(data: bytes, path):
    """The seven system arrays of a system file's JSON.  A field that is not
    a finite number is an :class:`InputFormatError`, a ``dim`` or block that
    disagrees with the others an :class:`InputDimensionError`."""
    doc = _parse_json(data, path)
    if not isinstance(doc, dict) or doc.get("kind") != "gradient-system":
        raise InputFormatError(f"{path}: not a gradient-system document")
    where = str(path)
    dim = doc.get("dim")
    if type(dim) is not int or dim <= 0:
        raise InputFormatError(f"{where}: dim must be a positive integer")
    fields = []
    for key in _SYSTEM_MATRICES:
        matrix = _matrix_from_block(doc.get(key), f"{where} {key}")
        if matrix.shape[0] != dim:
            raise InputDimensionError(
                f"{where} {key}: dimension {matrix.shape[0]}, system has {dim}")
        fields.append(matrix)
    for key in _SYSTEM_VECTORS:
        values = doc.get(key)
        if not isinstance(values, list):
            raise InputFormatError(f"{where} {key}: expected a list of numbers")
        if len(values) != dim:
            raise InputDimensionError(
                f"{where} {key}: {len(values)} entries, system has dimension {dim}")
        fields.append(_floats(values, values, f"{where} {key}"))
    residual = doc.get("residual")
    fields.append(float(_floats(residual, [residual], f"{where} residual")))
    return fields


def load_system_document(path):
    """Read a system file: ``(matrix, diagonalisation, system, sha256 digest)``.

    The arrays come from the sidecar when it carries the digest of the
    bytes read, else from the JSON; the records are validated either way."""
    from .spectral import Diagonalisation
    from .synthesis import CanonicalGradientSystem

    data = _read_bytes(path)
    digest = hashlib.sha256(data).hexdigest()
    fields = _read_sidecar(path, digest)
    if fields is None:
        fields = _parse_system(data, path)
    del data
    matrix, onsager, hessian, transform, eigenvalues, equilibrium, residual = fields
    try:
        diag = Diagonalisation(transform, eigenvalues, residual)
        gs = CanonicalGradientSystem(onsager, hessian, equilibrium)
    except ValueError as exc:
        raise InputDimensionError(f"{path}: inconsistent system ({exc})") from exc
    return matrix, diag, gs, digest


def write_trajectory_csv(path, trajectory) -> None:
    """CSV with header ``t,x1,...,xd``, one row per node, 17 significant digits."""
    dim = trajectory.states.shape[1]
    header = "t," + ",".join(f"x{i + 1}" for i in range(dim)) + "\n"
    table = np.column_stack((trajectory.times, trajectory.states))
    write_text(path, chain([header], (_float_row(row, ",") + "\n" for row in table)))


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
