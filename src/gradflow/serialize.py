"""File interchange for the command-line front end.

Matrices travel as JSON ``{"dim": d, "rows": [[...], ...]}`` (row-major);
generator files additionally declare ``"convention": "transposed"`` and are
refused without it.  Synthesized systems bundle every object in one JSON
document, read by key, with the fields in ``_SYSTEM_FIELDS`` order: the
blocks ``matrix``, ``onsager``, ``hessian`` and ``transform``, the vectors
``eigenvalues`` and ``equilibrium``, and the number ``residual``.
Trajectories are CSV with header ``t,x1,...,xd``.  orjson spells every
float in the shortest digits that read back to the same double, a row as
``[a,b,c]``; output is deterministic (stable key order, no locale
dependence) at a fixed orjson version and BLAS thread count.  Every text
file goes out through :func:`write_text`, which encodes, hashes and writes
it a piece at a time to a temporary file that replaces the target once it
is whole; :func:`write_stdout` writes and flushes the report on stdout.

Beside a system file ``sys.json`` gradflow also writes a binary sidecar
``sys.json.cache``: one header line ``gradflow-system-cache <sha256> <d>``,
then the raw little-endian float64 values of the same fields in the same
order, ``4 d**2 + 2 d + 1`` doubles in all.  A reader takes the arrays from
the sidecar only when its digest is the sha256 of the JSON bytes beside it
and its size fits ``d``; otherwise it parses the JSON, so a stale,
truncated or foreign sidecar is ignored and a JSON file copied without one
still loads.  The JSON stays the product: it is what ``inputs_digest``
names, and deleting the sidecar is always safe.  Both routes build the
records through the same validation, and the sidecar holds the same doubles
the JSON spells out (a negative zero reads back as ``+0`` on either
route), so no result depends on which route ran.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import stat
import sys
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np
import orjson

from .errors import InputDimensionError, InputFormatError, OutputError, PreconditionError

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


_INDENT = "  "


def _spell(values) -> str:
    """The one float writer: a float or a 1-D float array as ``a,b,c``, each
    in the shortest digits that read back to the same double.  orjson writes
    nan and infinities as ``null``, so they raise ``ValueError`` here."""
    row = np.ascontiguousarray(values, dtype=np.float64)  # 1-D at least, as orjson needs
    if not np.isfinite(row).all():
        raise ValueError("non-finite float in output")
    return orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()


def json_pieces(value, depth: int = 0):
    """Deterministic JSON with floats spelled by :func:`_spell`, as a stream
    of ``str`` pieces, so a large document need never exist whole.

    This walks the structure directly, so that every float goes through
    the one writer.  Dict key order is preserved (callers build reports
    with a fixed field order); only JSON-representable types plus numpy
    scalars and arrays are accepted.  Objects and lists put one item per
    line, indented by two spaces per level.  A float ``ndarray`` is
    rendered a row at a time: a 1-D array is one line ``[a,b,c]``, and an
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
        yield _spell(value)
    elif isinstance(value, str):
        yield json.dumps(value)
    elif isinstance(value, np.ndarray) and value.ndim > 1:
        yield from json_pieces(list(value), depth)
    elif isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.ndim:
        yield "[" + _spell(value) + "]"
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
    except RecursionError:
        raise InputFormatError(f"{path}: invalid JSON (nesting too deep)") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer beyond the digit limit
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


@contextmanager
def _whole_file(path):
    """A binary handle whose bytes reach ``path`` only if the block completes.

    A missing or regular target is written to a temporary file beside it,
    which replaces the target on success and is removed on failure, so a
    failed write leaves the earlier file or none.  Any other target (a
    device, a FIFO, a symlink) is written in place: a rename onto
    ``/dev/full`` would replace the device node."""
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as fh:
            yield fh
        return
    head, tail = os.path.split(path)
    temp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    fh = open(temp, "xb")
    try:
        with fh:
            yield fh
        if mode is not None:
            os.chmod(temp, stat.S_IMODE(mode))
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def write_text(path, pieces) -> str:
    """Write the ``str`` pieces to ``path`` as UTF-8, encoding and hashing
    one piece at a time, and return the sha256 hex digest of the bytes
    written; the file is whole or absent (:func:`_whole_file`), and an
    unwritable path is an :class:`OutputError`."""
    digest = hashlib.sha256()
    try:
        with _whole_file(path) as fh:
            for piece in pieces:
                data = piece.encode("utf-8")
                digest.update(data)
                fh.write(data)
    except OSError as exc:
        raise _output_error(path, exc) from exc
    return digest.hexdigest()


def write_stdout(text: str) -> None:
    """Write ``text`` to stdout and flush it, so that it has left the process
    on return; a closed pipe, a full device or a closed stdout is an
    :class:`OutputError` naming ``<stdout>``."""
    if sys.stdout is None:  # started with its stdout closed
        raise OutputError("cannot write <stdout>: stdout is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise _output_error("<stdout>", exc) from exc


def _output_error(path, exc: OSError) -> OutputError:
    return OutputError(f"cannot write {path}: {exc.strerror or exc}")


_SIDECAR_MAGIC = b"gradflow-system-cache"
# The fields of a system file in their order in the JSON and in the sidecar,
# each with its rank: 2 for a d x d block, 1 for a d-vector, 0 for a number.
_SYSTEM_FIELDS = (("matrix", 2), ("onsager", 2), ("hessian", 2), ("transform", 2),
                  ("eigenvalues", 1), ("equilibrium", 1), ("residual", 0))


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".cache")


def save_system_document(path, matrix: np.ndarray, diag: Diagonalisation,
                         gs: CanonicalGradientSystem) -> None:
    """The one writer of the system-file layout: the records as one JSON
    document, then its sidecar, which holds the same arrays, both in
    ``_SYSTEM_FIELDS`` order.  A sidecar that cannot be written is left
    out, since the JSON file is the product; an earlier one is then read
    only while its digest is still that of the JSON."""
    dim = int(matrix.shape[0])
    values = {"matrix": matrix, "transform": diag.transform,
              "eigenvalues": diag.eigenvalues, "residual": float(diag.residual),
              "onsager": gs.onsager, "hessian": gs.hessian, "equilibrium": gs.equilibrium}
    document = {"schema_version": SCHEMA_VERSION, "kind": "gradient-system", "dim": dim}
    for name, rank in _SYSTEM_FIELDS:
        document[name] = {"dim": dim, "rows": values[name]} if rank == 2 else values[name]
    digest = write_text(path, chain(json_pieces(document), ["\n"]))
    header = b"%s %s %d\n" % (_SIDECAR_MAGIC, digest.encode(), dim)
    try:
        with _whole_file(_sidecar_path(path)) as fh:
            fh.write(header)
            for name, _ in _SYSTEM_FIELDS:
                np.asarray(values[name], dtype="<f8").tofile(fh)
    except OSError:
        pass


def _read_sidecar(path, digest: str):
    """The system fields by name from the sidecar of ``path`` if it carries
    ``digest`` and holds exactly ``d**rank`` finite doubles per field, else
    ``None``."""
    try:
        data = _sidecar_path(path).read_bytes()
    except OSError:
        return None
    end = data.find(b"\n", 0, 256)
    header = data[:end].split(b" ") if end > 0 else []
    if (len(header) != 3 or header[0] != _SIDECAR_MAGIC or header[1] != digest.encode()
            or not header[2].isdigit()):
        return None
    dim = int(header[2])
    sizes = [dim ** rank for _, rank in _SYSTEM_FIELDS]
    if dim == 0 or len(data) - end - 1 != 8 * sum(sizes):
        return None
    body = np.frombuffer(data, dtype="<f8", offset=end + 1)
    if not np.all(np.isfinite(body)):
        return None
    parts = np.split(body, np.cumsum(sizes)[:-1])
    return {name: part.reshape((dim,) * rank)
            for (name, rank), part in zip(_SYSTEM_FIELDS, parts)}


def _parse_system(data: bytes, path):
    """The system fields by name from a system file's JSON.  A
    ``schema_version`` other than ``SCHEMA_VERSION``, or none, and a field
    that is not a finite number are an :class:`InputFormatError`; a ``dim``
    or field of the wrong size is an :class:`InputDimensionError`."""
    doc = _parse_json(data, path)
    if not isinstance(doc, dict) or doc.get("kind") != "gradient-system":
        raise InputFormatError(f"{path}: not a gradient-system document")
    if doc.get("schema_version") != SCHEMA_VERSION:
        found = json.dumps(doc["schema_version"]) if "schema_version" in doc else "missing"
        raise InputFormatError(f'{path}: schema_version {found}, expected "{SCHEMA_VERSION}"')
    dim = doc.get("dim")
    if type(dim) is not int or dim <= 0:
        raise InputFormatError(f"{path}: dim must be a positive integer")
    fields = {}
    for name, rank in _SYSTEM_FIELDS:
        what, value = f"{path} {name}", doc.get(name)
        if rank == 2:
            array = _matrix_from_block(value, what)
        elif isinstance(value, list) != (rank == 1):
            expected = "a list of numbers" if rank else "a number"
            raise InputFormatError(f"{what}: expected {expected}")
        else:
            array = _floats(value, value if rank else [value], what)
        if array.shape != (dim,) * rank:
            raise InputDimensionError(
                f"{what}: shape {array.shape}, system has dimension {dim}")
        fields[name] = array
    return fields


def load_system_document(path):
    """Read a system file: ``(matrix, diagonalisation, system, sha256 digest)``.

    The arrays come from the sidecar when it carries the digest of the
    bytes read, else from the JSON; the records are validated either way.
    Their sizes already agree, so a record that fails its own checks (a
    hessian that is not symmetric, say) is a :class:`PreconditionError`."""
    from .spectral import Diagonalisation
    from .synthesis import CanonicalGradientSystem

    data = _read_bytes(path)
    digest = hashlib.sha256(data).hexdigest()
    fields = _read_sidecar(path, digest)
    if fields is None:
        fields = _parse_system(data, path)
    del data
    fields = {name: array + 0.0 for name, array in fields.items()}  # fresh; -0.0 as +0.0
    try:
        diag = Diagonalisation(fields["transform"], fields["eigenvalues"],
                               float(fields["residual"]))
        gs = CanonicalGradientSystem(fields["onsager"], fields["hessian"],
                                     fields["equilibrium"])
    except ValueError as exc:
        raise PreconditionError(f"{path}: not a gradient system ({exc})") from exc
    return fields["matrix"], diag, gs, digest


def write_trajectory_csv(path, trajectory) -> None:
    """CSV with header ``t,x1,...,xd``, one row per node, spelled by :func:`_spell`."""
    dim = trajectory.states.shape[1]
    header = "t," + ",".join(f"x{i + 1}" for i in range(dim)) + "\n"
    table = np.column_stack((trajectory.times, trajectory.states))
    write_text(path, chain([header], (_spell(row) + "\n" for row in table)))


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
