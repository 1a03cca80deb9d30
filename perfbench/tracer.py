"""Run one gradflow CLI command with its layers timed from outside.

Usage: python perfbench/tracer.py SPANS_JSON PASS_ID -- <gradflow arguments>

Before calling ``gradflow.cli.main(argv)`` this wraps, by patching module
and class attributes:

* every public function of the layer modules (spectral, synthesis,
  geometry, flow, markov, serialize), including the copies other modules
  imported by name (``from .flow import exact_flow``);
* the ``__init__``, public methods and classmethods of their classes;
* ``gradflow.cli.main`` itself (argparse, dispatch and report assembly;
  the ``cmd_*`` handlers are part of it);
* the numpy.linalg factorisations.

Each call becomes a span ``[name, start_ns, end_ns, parent, raised, count,
pass_id]``.  ``count`` is a per-call work count for the functions in
``COUNTERS`` and 0 elsewhere.  Spans stay in memory and are written to
SPANS_JSON when the command ends, however it ends; the exit status is the
command's own.
"""

from __future__ import annotations

import enum
import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("spectral", "synthesis", "geometry", "flow", "markov", "serialize")
LINALG = ("eig", "eigh", "eigvalsh", "svd", "inv", "solve", "cholesky")


def _rows(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return 1 if getattr(x, "ndim", 1) == 1 else len(x)


def _path_size(args, kwargs, result):
    return os.path.getsize(args[0])


COUNTERS = {
    "synthesis.CanonicalGradientSystem.energy": _rows,
    "serialize.render_json": lambda args, kwargs, result: len(result),
    "serialize.write_trajectory_csv": _path_size,
    "serialize.load_matrix_document": _path_size,
    "serialize.load_generator_document": _path_size,
    "serialize.load_system_document": _path_size,
    "serialize.file_digest": _path_size,
    "flow.rk4_flow": lambda args, kwargs, result: result.times.size - 1,
    "flow.minimizing_movement_flow": lambda args, kwargs, result: result.times.size - 1,
}


class Recorder:
    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1,
                    False, 0, self.pass_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _wrap_class(recorder, prefix, cls):
    for attr, member in list(vars(cls).items()):
        name = f"{prefix}.{cls.__name__}.{'init' if attr == '__init__' else attr}"
        if attr == "__init__":
            setattr(cls, attr, recorder.wrap(name, member))
        elif attr.startswith("_"):
            continue
        elif isinstance(member, classmethod):
            setattr(cls, attr, classmethod(recorder.wrap(name, member.__func__)))
        elif inspect.isfunction(member):
            setattr(cls, attr, recorder.wrap(name, member))


def instrument(recorder):
    """Patch gradflow and numpy.linalg; return the wrapped ``cli.main``."""
    import numpy as np

    import gradflow
    import gradflow.cli as cli

    modules = [getattr(gradflow, layer) for layer in LAYERS]
    wrapped = {}
    for layer, module in zip(LAYERS, modules):
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = recorder.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                _wrap_class(recorder, layer, obj)
    wrapped[cli.main] = recorder.wrap("cli.main", cli.main)
    # Rebind every module-level name that refers to a wrapped function, so
    # calls through direct imports are traced too.
    for module in (gradflow, cli, *modules):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
    for name in LINALG:
        setattr(np.linalg, name, recorder.wrap(f"linalg.{name}", getattr(np.linalg, name)))
    return cli.main


def main() -> int:
    spans_path, pass_id, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit(__doc__)
    recorder = Recorder(pass_id)
    traced_main = instrument(recorder)
    try:
        return traced_main(argv)
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
