"""gradflow benchmark: per-command CLI latency with planted-truth checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload small-chains --seed 1 --seconds 55 --trace 0

One client in a closed loop: each CLI command is its own child process
(``python -m gradflow.cli ...`` with ``PYTHONPATH=src``), started only after
the previous one has exited, exactly as a user runs it.  The loop cycles
through the workload's pipeline passes (see ``workloads.py``), skipping a
pass that would end after ``--seconds``, until none fits; the first full
round always runs.
Every output is checked against the planted truth.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median wall time of a fresh process that only imports
  ``gradflow.cli`` (one before each pass, plus three at the start);
* ``<command>_s`` for analyze, synthesize, verify, convexity, simulate and
  markov: for each distinct invocation the median wall time from process
  start to exit, then the geometric mean over the workload's invocations of
  that command;
* ``peak_rss_mb``: the largest peak RSS of any measured child;
* ``accuracy_digits``: the smallest ``-log10`` relative error against the
  planted truth over all checks of passing invocations.

``--trace 1`` runs whole rounds in which each pass runs once through
``tracer.py`` and once untraced, and reports the per-layer metrics of
``PER_LAYER``: self times per pass, counts per round, and the tracing
overhead (traced minus untraced wall time, median over the pairs).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report,
including the latency tail of each command, the failed invocations and the
known-defect probe, each by name.  The exit status is non-zero, with no
result line, when the program or the checks cannot run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

CHILD_ENV = dict(os.environ)
# The benchmark's own numpy work (input generation and checks) runs on one
# BLAS thread, so no idle OpenBLAS worker spins beside a measured child.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import workloads  # noqa: E402  (imports numpy)
from checks import CheckFailed, Outcome, SystemFiles  # noqa: E402
from tracer import LAYERS, LINALG  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COMMANDS = ("analyze", "synthesize", "verify", "convexity", "simulate", "markov")
CHILD_TIMEOUT_S = 60.0       # a hung child is killed and counts as failed
START_PROBES = 3
ERROR_FLOOR = 1e-17          # relative errors below this count as 17 digits


# metric name -> (unit, aggregate, span names).  "self" is self time summed
# and divided by traced passes; "calls" and "count" are call counts and the
# tracer's per-call work counts, summed and divided by traced rounds.
PER_LAYER = {
    "spectral.inspect_spectrum.self_s": ("s", "self", ("spectral.inspect_spectrum",)),
    "spectral.real_diagonalise.self_s": ("s", "self", ("spectral.real_diagonalise",)),
    "spectral.is_spd.self_s": ("s", "self", ("spectral.is_spd",)),
    "spectral.Diagonalisation.init_s": ("s", "self", ("spectral.Diagonalisation.init",)),
    "synthesis.synthesize_canonical.self_s": ("s", "self", ("synthesis.synthesize_canonical",)),
    "synthesis.verify_flow_identity.self_s": ("s", "self", ("synthesis.verify_flow_identity",)),
    "synthesis.CanonicalGradientSystem.init_s":
        ("s", "self", ("synthesis.CanonicalGradientSystem.init",)),
    "synthesis.energy.self_s": ("s", "self", ("synthesis.CanonicalGradientSystem.energy",)),
    "synthesis.energy.rows": ("count", "count", ("synthesis.CanonicalGradientSystem.energy",)),
    "geometry.MetricContext.from_diagonalisation.self_s":
        ("s", "self", ("geometry.MetricContext.from_diagonalisation",)),
    "geometry.convexity_constants.self_s": ("s", "self", ("geometry.convexity_constants",)),
    "geometry.check_strong_monotonicity.self_s":
        ("s", "self", ("geometry.check_strong_monotonicity",)),
    "geometry.check_geodesic_convexity.self_s":
        ("s", "self", ("geometry.check_geodesic_convexity",)),
    "geometry.check_contraction.self_s": ("s", "self", ("geometry.check_contraction",)),
    "flow.exact_flow.self_s": ("s", "self", ("flow.exact_flow",)),
    "flow.exact_trajectory.self_s": ("s", "self", ("flow.exact_trajectory",)),
    "flow.rk4_flow.self_s": ("s", "self", ("flow.rk4_flow",)),
    "flow.minimizing_movement_flow.self_s": ("s", "self", ("flow.minimizing_movement_flow",)),
    "flow.dissipation_audit.self_s": ("s", "self", ("flow.dissipation_audit",)),
    "flow.steps": ("count", "count", ("flow.rk4_flow", "flow.minimizing_movement_flow")),
    "markov.validate_generator.self_s": ("s", "self", ("markov.validate_generator",)),
    "markov.stationary_distribution.self_s": ("s", "self", ("markov.stationary_distribution",)),
    "markov.is_reversible.self_s": ("s", "self", ("markov.is_reversible",)),
    "markov.EntropicStructure.from_generator.self_s":
        ("s", "self", ("markov.EntropicStructure.from_generator",)),
    "markov.verify_entropic_flow.self_s": ("s", "self", ("markov.verify_entropic_flow",)),
    "markov.entropic_onsager.calls": ("count", "calls", ("markov.entropic_onsager",)),
    "serialize.load_matrix_document.self_s": ("s", "self", ("serialize.load_matrix_document",)),
    "serialize.load_generator_document.self_s":
        ("s", "self", ("serialize.load_generator_document",)),
    "serialize.load_system_document.self_s": ("s", "self", ("serialize.load_system_document",)),
    "serialize.render_json.self_s": ("s", "self", ("serialize.render_json",)),
    "serialize.render_json.bytes": ("bytes", "count", ("serialize.render_json",)),
    "serialize.save_system_document.self_s": ("s", "self", ("serialize.save_system_document",)),
    "serialize.write_trajectory_csv.self_s": ("s", "self", ("serialize.write_trajectory_csv",)),
    "serialize.write_trajectory_csv.bytes":
        ("bytes", "count", ("serialize.write_trajectory_csv",)),
    "serialize.file_digest.self_s": ("s", "self", ("serialize.file_digest",)),
    "serialize.bytes_read": ("bytes", "count", (
        "serialize.load_matrix_document", "serialize.load_generator_document",
        "serialize.load_system_document", "serialize.file_digest")),
    "cli.main.self_s": ("s", "self", ("cli.main",)),
    "linalg.self_s": ("s", "self", tuple(f"linalg.{n}" for n in LINALG)),
    **{f"linalg.{n}.calls": ("count", "calls", (f"linalg.{n}",)) for n in LINALG},
}
# Besides these: <layer>.self_s (all of a layer's spans), <layer>.errors,
# linalg.calls_per_<command>, cli.exit_nonzero and cli.trace_overhead_s
# (see span_metrics and trace).
ERROR_LAYERS = ("spectral", "flow", "markov")


class Runner:
    """Starts children in the workload directory and records what they did."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(CHILD_ENV, PYTHONPATH=str(ROOT / "src"))
        self.out_path = work / "child.stdout"
        self.err_path = work / "child.stderr"

    def spawn(self, argv) -> tuple[Outcome, float, int]:
        """Run one child to completion: (outcome, wall seconds, peak RSS in KiB)."""
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, cwd=self.work, env=self.env)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        outcome = Outcome(proc.returncode,
                          self.out_path.read_text(encoding="utf-8", errors="replace"),
                          self.err_path.read_text(encoding="utf-8", errors="replace"))
        return outcome, wall, usage.ru_maxrss

    def cli(self, inv, spans: Path | None = None, pass_id: str = ""):
        if spans is None:
            return self.spawn(["-m", "gradflow.cli", *inv.argv])
        return self.spawn([str(HERE / "tracer.py"), str(spans), pass_id, "--", *inv.argv])

    def setup_probe(self) -> float:
        outcome, wall, _ = self.spawn(["-c", "import gradflow.cli"])
        if outcome.exit_code != 0:
            raise SystemExit(f"importing gradflow.cli failed:\n{outcome.stderr}")
        return wall


def judge(inv, outcome: Outcome) -> tuple[list[float] | None, str]:
    """(relative errors, "") when the output is right, (None, reason) otherwise."""
    if outcome.exit_code != inv.expect_exit:
        tail = outcome.stderr.strip().splitlines()[-1:] or [""]
        return None, f"exit {outcome.exit_code}, expected {inv.expect_exit}: {tail[0][:160]}"
    if "Traceback" in outcome.stderr:
        return None, "traceback on stderr"
    try:
        return inv.check(outcome), ""
    except CheckFailed as exc:
        return None, str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return None, f"malformed output: {type(exc).__name__}: {exc}"


class Tally:
    """Attempts, failures and accuracy over the checked invocations."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.min_error_digits = math.inf
        self.least_accurate = ""

    def record(self, kind, inv, outcome) -> None:
        self.attempted += 1
        errors, reason = judge(inv, outcome)
        if errors is None:
            self.failures[f"{kind}: {reason}"] += 1
            return
        for err in errors:
            digits = -math.log10(max(float(err), ERROR_FLOOR))
            if digits < self.min_error_digits:
                self.min_error_digits, self.least_accurate = digits, kind

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def geometric_mean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def tail(samples):
    """Highest percentile with at least ten samples beyond it: (pct, value) or None."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure(workload, runner, tally, seconds) -> tuple[dict, list[str]]:
    walls: dict[str, dict[str, list[float]]] = {c: defaultdict(list) for c in COMMANDS}
    probes = [runner.setup_probe() for _ in range(START_PROBES)]
    peak_kib = 0
    last = {}
    start = time.perf_counter()
    done = 0
    skipped = 0
    for i in itertools.count():
        p = workload.passes[i % len(workload.passes)]
        # After the first round, a pass that would end after the deadline is
        # skipped; the run ends when a whole cycle fits no pass.
        if i >= len(workload.passes) and time.perf_counter() - start + last[p.name] > seconds:
            skipped += 1
            if skipped == len(workload.passes):
                break
            continue
        skipped = 0
        done += 1
        began = time.perf_counter()
        probes.append(runner.setup_probe())
        for inv in p.invocations:
            outcome, wall, rss = runner.cli(inv)
            kind = f"{p.name}:{inv.label}"
            walls[inv.command][kind].append(wall)
            peak_kib = max(peak_kib, rss)
            tally.record(kind, inv, outcome)
        last[p.name] = time.perf_counter() - began
    lines = [f"passes: {done} ({len(workload.passes)} per round) in "
             f"{time.perf_counter() - start:.1f} s"]
    metrics = {"setup_s": (statistics.median(probes), "s")}
    lines.append(f"setup_s: median of {len(probes)} fresh imports of gradflow.cli")
    for command in COMMANDS:
        by_kind = walls[command]
        value = geometric_mean([statistics.median(w) for w in by_kind.values()])
        metrics[f"{command}_s"] = (value, "s")
        pooled = [w for ws in by_kind.values() for w in ws]
        t = tail(pooled)
        tail_text = (f"tail p{t[0]:.1f} = {t[1]:.4f} s" if t
                     else "tail n/a (needs more than 10 samples)")
        lines.append(f"{command}_s: {value:.4f} s, geometric mean of {len(by_kind)} "
                     f"invocation medians; {len(pooled)} samples, {tail_text}")
    metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MB")
    return metrics, lines


def span_metrics(span_files, rounds, passes) -> dict:
    """Merge the tracer's span files into the per-layer metrics."""
    totals = defaultdict(lambda: [0, 0, 0])       # name -> [self_ns, calls, count]
    errors = Counter()
    linalg_by_command = Counter()
    invocations_by_command = Counter()
    for path, command in span_files:
        spans = json.loads(path.read_text(encoding="utf-8"))
        invocations_by_command[command] += 1
        child_ns = [0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, raised, count, _) in enumerate(spans):
            entry = totals[name]
            entry[0] += end - start - child_ns[i]
            entry[1] += 1
            entry[2] += count
            layer = name.split(".")[0]
            # An error counts once, where it leaves its layer.
            if raised and (parent < 0 or spans[parent][0].split(".")[0] != layer):
                errors[layer] += 1
            if layer == "linalg":
                linalg_by_command[command] += 1
    metrics = {}
    for metric, (unit, how, names) in PER_LAYER.items():
        if how == "self":
            value = sum(totals[n][0] for n in names) / 1e9 / passes
        else:
            value = sum(totals[n][1 if how == "calls" else 2] for n in names) / rounds
        metrics[metric] = (value, unit)
    for layer in LAYERS:
        self_ns = sum(entry[0] for name, entry in totals.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (self_ns / 1e9 / passes, "s")
    for layer in ERROR_LAYERS:
        metrics[f"{layer}.errors"] = (errors[layer] / rounds, "count")
    for command in COMMANDS:
        n = invocations_by_command[command]
        metrics[f"linalg.calls_per_{command}"] = (linalg_by_command[command] / n if n else 0.0,
                                                  "count")
    return metrics


def trace(workload, runner, tally, seconds, work) -> tuple[dict, list[str]]:
    spans_dir = work / "spans"
    spans_dir.mkdir()
    span_files = []
    overheads = []
    nonzero = 0
    start = time.perf_counter()
    rounds = 0
    round_s = 0.0
    while rounds == 0 or time.perf_counter() - start + round_s <= seconds:
        began = time.perf_counter()
        for p in workload.passes:
            pass_id = f"{rounds}:{p.name}"
            traced = []
            for inv in p.invocations:
                path = spans_dir / f"{len(span_files)}.json"
                outcome, wall, _ = runner.cli(inv, path, pass_id)
                span_files.append((path, inv.command))
                traced.append(wall)
                nonzero += outcome.exit_code != 0
                tally.record(f"{p.name}:{inv.label} (traced)", inv, outcome)
            for inv, traced_wall in zip(p.invocations, traced):
                outcome, wall, _ = runner.cli(inv)
                overheads.append(traced_wall - wall)
                tally.record(f"{p.name}:{inv.label}", inv, outcome)
        rounds += 1
        round_s = time.perf_counter() - began
    metrics = span_metrics(span_files, rounds, rounds * len(workload.passes))
    metrics["cli.exit_nonzero"] = (nonzero / rounds, "count")
    metrics["cli.trace_overhead_s"] = (statistics.median(overheads), "s")
    lines = [f"traced rounds: {rounds} ({rounds * len(workload.passes)} passes, "
             f"{len(span_files)} traced invocations) in {time.perf_counter() - start:.1f} s"]
    return metrics, lines


def known_defects(workload, runner) -> list[str]:
    lines = []
    for p in workload.known_defects:
        for inv in p.invocations:
            outcome, _, _ = runner.cli(inv)
            errors, reason = judge(inv, outcome)
            verdict = "ok" if errors is not None else f"FAILS ({reason})"
            lines.append(f"known defect {p.name}:{inv.label}: {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gradflow" / "cli.py").is_file():
        print(f"gradflow sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)
    runner.setup_probe()            # fills the bytecode cache before anything is timed
    workload = workloads.build(args.workload, args.seed, work, SystemFiles())
    tally = Tally()

    if args.trace:
        metrics, lines = trace(workload, runner, tally, args.seconds, work)
    else:
        metrics, lines = measure(workload, runner, tally, args.seconds)
        if tally.min_error_digits == math.inf:
            print("no numeric output was checked", file=sys.stderr)
            return 3
        metrics["accuracy_digits"] = (tally.min_error_digits, "digits")
        lines.append(f"accuracy_digits: set by {tally.least_accurate}")
        lines += known_defects(workload, runner)

    lines.append(f"failed_ratio: {tally.failed / tally.attempted:.4f} "
                 f"({tally.failed} of {tally.attempted} invocations)")
    lines += [f"FAILED x{n} {what}" for what, n in sorted(tally.failures.items())]
    for name, (value, unit) in metrics.items():
        lines.append(f"{args.workload} {name} = {value:.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
