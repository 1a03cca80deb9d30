"""The lazy package namespace, and the layers each command loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradflow

SRC = str(Path(gradflow.__file__).resolve().parents[1])
LAYERS = ("spectral", "synthesis", "geometry", "flow", "markov", "serialize")


def _python(*args):
    """Run a fresh interpreter on the sources."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, check=False)


def _modules_after(statement: str, *argv) -> set[str]:
    """The modules a fresh interpreter holds once ``statement`` has run."""
    probe = f"import sys\ntry:\n    {statement}\nfinally:\n    print(*sys.modules, file=sys.stderr)"
    result = _python("-c", probe, *argv)
    assert result.returncode == 0, result.stderr
    return set(result.stderr.splitlines()[-1].split())


def test_every_public_name_resolves_to_its_home_object():
    assert len(gradflow.__all__) == 45
    listed = dir(gradflow)
    for name in gradflow.__all__:
        assert name in listed
        value = getattr(gradflow, name)
        if name == "errors":
            assert value is importlib.import_module("gradflow.errors")
        else:
            home = importlib.import_module(f"gradflow.{gradflow._HOME[name]}")
            assert value is vars(home)[name]
            assert getattr(value, "__module__", home.__name__) == home.__name__


def test_layer_modules_resolve_on_first_access():
    code = f"import gradflow; print(*(getattr(gradflow, m).__name__ for m in {LAYERS}))"
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [f"gradflow.{layer}" for layer in LAYERS]


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'gradflow' has no attribute 'nope'"):
        getattr(gradflow, "nope")


def test_import_gradflow_loads_no_layer_and_no_numpy():
    loaded = _modules_after("import gradflow")
    assert "gradflow" in loaded
    assert not loaded & {"numpy", *(f"gradflow.{layer}" for layer in LAYERS)}


def test_importing_gradflow_and_its_cli_sets_no_environment_variable():
    """Only the process entry sets the BLAS thread count: an importer keeps its own."""
    probe = ("import os\n"
             "for name in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS'):\n"
             "    os.environ.pop(name, None)\n"
             "before = dict(os.environ)\n"
             "import gradflow, gradflow.cli\n"
             "assert dict(os.environ) == before, dict(os.environ).items() - before.items()")
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr


def test_analyze_loads_only_spectral_and_serialize(tmp_path):
    matrix = tmp_path / "a.json"
    matrix.write_text('{"dim": 2, "rows": [[-1, 0], [0, -2]]}')
    loaded = _modules_after("from gradflow.cli import main; raise SystemExit(main(sys.argv[1:]))",
                            "analyze", str(matrix))
    assert {"gradflow.serialize", "gradflow.spectral"} <= loaded
    assert not loaded & {"gradflow.flow", "gradflow.geometry", "gradflow.markov",
                         "gradflow.synthesis", "logging"}


def test_gradflow_log_is_not_read(tmp_path, monkeypatch):
    """The removed ``GRADFLOW_LOG=debug`` prints nothing and loads no ``logging``."""
    monkeypatch.setenv("GRADFLOW_LOG", "debug")
    matrix = tmp_path / "a.json"
    matrix.write_text('{"dim": 2, "rows": [[-1, 0], [0, -2]]}')
    result = _python("-m", "gradflow.cli", "analyze", str(matrix))
    assert (result.returncode, result.stderr) == (0, "")
    loaded = _modules_after("from gradflow.cli import main; raise SystemExit(main(sys.argv[1:]))",
                            "analyze", str(matrix))
    assert "logging" not in loaded
