"""The process entry (``python -m gradflow.cli``, the ``gradflow`` script).

Each test runs a fresh interpreter without ``PYTHONUNBUFFERED``, so stdout
is block-buffered and a report that was never flushed before the process
ended would show as missing or cut-short output."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gradflow import cli
from gradflow.cli import main

from conftest import make_diagonalisation

SRC = str(Path(cli.__file__).resolve().parents[1])
THREE_STATE_DOC = {"dim": 3, "rows": [[-2, 0, 2], [1, -3, 2], [1, 3, -4]]}
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cli(*argv, cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=(), **popen):
    """Run ``python -m gradflow.cli argv`` in a fresh interpreter, with no BLAS
    thread count set but those in ``env``."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONUNBUFFERED", *BLAS_THREADS)}
    return subprocess.run([sys.executable, "-m", "gradflow.cli", *argv], cwd=cwd,
                          stdout=stdout, stderr=stderr, text=True,
                          env={**base, "PYTHONPATH": SRC, **dict(env)}, check=False,
                          **popen)


def _in_process(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _without_timestamp(text: str) -> dict:
    report = json.loads(text)
    report.pop("generated_at")
    return report


def _write(path: Path, payload) -> str:
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


@pytest.fixture
def d200(tmp_path):
    """A planted d = 200 matrix: its ``analyze`` report is over 8 KiB."""
    planted = make_diagonalisation(np.random.default_rng(200), 200, min_gap=1e-3)
    return _write(tmp_path / "a200.json", {"dim": 200, "rows": planted.reconstruct().tolist()})


@pytest.mark.parametrize("code, label, argv", [
    (0, None, ["analyze", "{matrix}"]),
    (2, "parse error", ["analyze", "{bad}"]),
    (3, "dimension error", ["simulate", "{system}", "--x0", "1,0", "--t-end", "1",
                            "--out", "t.csv"]),
    (4, "precondition failed", ["synthesize", "{jordan}", "--out", "sys2.json"]),
    (5, "numeric failure", ["simulate", "{growing}", "--x0", "1", "--t-end", "1000",
                            "--out", "t.csv"]),
])
def test_each_exit_code_and_label_from_a_fresh_process(tmp_path, capsys, code, label, argv):
    fields = {"matrix": _write(tmp_path / "a.json", THREE_STATE_DOC),
              "bad": _write(tmp_path / "bad.json", "{not json"),
              "jordan": _write(tmp_path / "j.json", {"dim": 2, "rows": [[0, 1], [0, 0]]}),
              "system": str(tmp_path / "sys.json"), "growing": str(tmp_path / "grow.json")}
    _in_process(capsys, "synthesize", fields["matrix"], "--out", fields["system"])
    _in_process(capsys, "synthesize", _write(tmp_path / "g.json", {"dim": 1, "rows": [[1]]}),
                "--out", fields["growing"])
    child = _cli(*(part.format(**fields) for part in argv), cwd=tmp_path)
    assert child.returncode == code, child.stderr
    if label is None:
        assert child.stderr == ""
        assert json.loads(child.stdout)["command"] == "analyze"
    else:
        assert child.stdout == ""
        assert child.stderr.startswith(f"gradflow: {label}: ")
        assert len(child.stderr.splitlines()) == 1


def test_stdout_is_the_whole_report(tmp_path, d200):
    expected = _cli("analyze", d200, cwd=tmp_path).stdout
    child = _cli("analyze", d200, cwd=tmp_path)
    assert (child.returncode, child.stderr) == (0, "")
    assert len(child.stdout.encode()) > 8192
    assert _without_timestamp(child.stdout) == _without_timestamp(expected)


def test_simulate_csv_is_whole(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _in_process(capsys, "synthesize", _write(tmp_path / "a.json", THREE_STATE_DOC),
                "--out", "sys.json")
    argv = ["simulate", "sys.json", "--x0", "1,0,0", "--x0", "0,1,0", "--t-end", "2",
            "--step", "0.001", "--out", "t.csv"]
    expected = _in_process(capsys, *argv)
    expected_csv = (tmp_path / "t.csv").read_bytes()
    (tmp_path / "t.csv").unlink()
    child = _cli(*argv, cwd=tmp_path)
    assert (child.returncode, child.stderr) == (0, "")
    assert _without_timestamp(child.stdout) == _without_timestamp(expected)
    csv = (tmp_path / "t.csv").read_bytes()
    assert len(csv) > 8192 and csv.count(b"\n") == 2002
    assert hashlib.sha256(csv).digest() == hashlib.sha256(expected_csv).digest()


def test_a_report_does_not_depend_on_the_blas_thread_count(tmp_path, d200):
    """The process sets one BLAS thread before numpy loads, so an unset count
    reads the bits of ``=1``; from d = 200 a threaded BLAS changes the last bits."""
    unset = _cli("analyze", d200, cwd=tmp_path)
    one = _cli("analyze", d200, cwd=tmp_path, env=dict.fromkeys(BLAS_THREADS, "1"))
    assert (unset.returncode, one.returncode) == (0, 0)
    assert _without_timestamp(unset.stdout) == _without_timestamp(one.stdout)


@pytest.mark.parametrize("entry", [
    "runpy.run_module('gradflow.cli', run_name='__main__')", "gradflow._script()"],
    ids=["python -m gradflow.cli", "console script"])
@pytest.mark.parametrize("caller, seen", [
    ({}, "1 1 1"), ({"OMP_NUM_THREADS": "2"}, "None 2 None")], ids=["unset", "caller's 2"])
def test_the_process_entry_sets_one_blas_thread_unless_the_caller_set_one(
        tmp_path, entry, caller, seen):
    """Each entry runs ``--help`` and reports the variables as ``os._exit`` ends it."""
    probe = ("import os, runpy, sys, gradflow\n"
             "def _exit(code):\n"
             f"    print(*map(os.environ.get, {BLAS_THREADS}), file=sys.stderr)\n"
             "    sys.exit(code)\n"
             "os._exit, sys.argv = _exit, ['gradflow', '--help']\n" + entry)
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    child = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, capture_output=True,
                           text=True, env={**base, "PYTHONPATH": SRC, **caller}, check=False)
    assert (child.returncode, child.stderr) == (0, seen + "\n")
    assert child.stdout.startswith("usage: gradflow")


def test_usage_error_exits_2_and_help_exits_0(tmp_path):
    usage = _cli("analyze", "a.json", "--bogus", cwd=tmp_path)
    assert usage.returncode == 2 and "unrecognized arguments: --bogus" in usage.stderr
    helped = _cli("--help", cwd=tmp_path)
    assert (helped.returncode, helped.stderr) == (0, "")
    assert helped.stdout.startswith("usage: gradflow")


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("dim", [3, 200])
@pytest.mark.parametrize("sink", ["closed pipe", "full device"])
def test_a_failed_report_write_exits_2_and_leaves_the_system_file_whole(
        tmp_path, d200, sink, dim, unbuffered):
    """A pipe whose read end is closed (EPIPE) or ``/dev/full`` (ENOSPC) on
    stdout: the first failing write or flush, buffered or not, short report
    or over a buffer's length, exits 2 with one line and no traceback, and
    ``synthesize``'s system file, written before the report, is whole."""
    if sink == "full device" and not Path("/dev/full").exists():
        pytest.skip("needs /dev/full")
    matrix = d200 if dim == 200 else _write(tmp_path / "a.json", THREE_STATE_DOC)
    assert _cli("synthesize", matrix, "--out", "expected.json", cwd=tmp_path).returncode == 0
    env = {"PYTHONUNBUFFERED": "1"} if unbuffered else {}
    for argv in (["analyze", matrix], ["synthesize", matrix, "--out", "sys.json"]):
        if sink == "closed pipe":
            read_end, write_end = os.pipe()
            os.close(read_end)
            stdout, reason = os.fdopen(write_end, "wb"), "Broken pipe"
        else:
            stdout, reason = open("/dev/full", "wb"), "No space left on device"
        with stdout:
            child = _cli(*argv, cwd=tmp_path, stdout=stdout, env=env)
        assert child.returncode == 2
        assert child.stderr == f"gradflow: output error: cannot write <stdout>: {reason}\n"
    assert (tmp_path / "sys.json").read_bytes() == (tmp_path / "expected.json").read_bytes()


def test_a_closed_stdout_exits_2_after_the_system_file(tmp_path):
    """Started with descriptor 1 closed, Python has no ``sys.stdout``."""
    matrix = _write(tmp_path / "a.json", THREE_STATE_DOC)
    assert _cli("synthesize", matrix, "--out", "expected.json", cwd=tmp_path).returncode == 0
    child = _cli("synthesize", matrix, "--out", "sys.json", cwd=tmp_path,
                 stdout=subprocess.DEVNULL, preexec_fn=lambda: os.close(1))
    assert child.returncode == 2
    assert child.stderr == "gradflow: output error: cannot write <stdout>: stdout is closed\n"
    assert (tmp_path / "sys.json").read_bytes() == (tmp_path / "expected.json").read_bytes()


@pytest.mark.parametrize("sink", ["closed pipe", "full device", "unbuffered closed pipe"])
def test_help_that_cannot_be_written_exits_2(tmp_path, sink):
    """The help goes out and is flushed as a report is, so a failed write
    exits 2 with one line: not 120 from the interpreter's own flush at
    shutdown, and not 0 from argparse dropping an unbuffered write's error."""
    if sink.endswith("closed pipe"):
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout, reason = os.fdopen(write_end, "wb"), "Broken pipe"
    elif Path("/dev/full").exists():
        stdout, reason = open("/dev/full", "wb"), "No space left on device"
    else:
        pytest.skip("needs /dev/full")
    with stdout:
        child = _cli("--help", cwd=tmp_path, stdout=stdout,
                     env={"PYTHONUNBUFFERED": "1"} if sink.startswith("unbuffered") else {})
    assert child.returncode == 2
    assert child.stderr == f"gradflow: output error: cannot write <stdout>: {reason}\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_a_failure_line_to_a_full_stderr_keeps_the_failure_code(tmp_path):
    """The line of a parse error cannot be written to a full stderr; the
    failure's own exit code 2 still stands."""
    with open("/dev/full", "wb") as stderr:
        child = _cli("analyze", "nope.json", cwd=tmp_path, stderr=stderr)
    assert (child.returncode, child.stdout) == (2, "")
