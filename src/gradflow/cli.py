"""Command-line front end.

Exit code 0: the command completed (findings such as "not diagonalisable"
are results, not errors).  A failure exits with the code and label of its
class in :mod:`gradflow.errors`; numpy's linear-algebra and floating-point
errors and ``MemoryError`` count as numeric failures (5).  Reports are
printed to stdout as deterministic JSON; a report's ``options`` holds only
the settings that took effect.  :func:`main` returns the exit code;
:func:`run`, the process entry, ends the process as soon as the output is
flushed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings as _warnings
from dataclasses import asdict
from typing import NoReturn

import numpy as np

from .errors import (ColumnSumError, GradFlowError, InputDimensionError,
                     InputFormatError, NegativeRateError, PreconditionError)
from .serialize import (
    build_report,
    load_generator_document,
    load_matrix_document,
    load_system_document,
    render_json,
    save_system_document,
    write_stdout,
    write_text,
    write_trajectory_csv,
)
from .spectral import (DEFAULT_TOL, _factorisation_residual, inspect_spectrum,
                       real_diagonalise)

# Largest --samples, --nodes or --t-end / --step: each count sizes an array,
# so a larger one is refused (exit 2) before anything is allocated.
MAX_COUNT = 2 ** 24


def _complex_list(values) -> list[dict]:
    return [{"real": float(v.real), "imag": float(v.imag)} for v in values]


def _parse_state(text: str, dim: int) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputFormatError(f"bad state vector {text!r}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise InputFormatError(f"bad state vector {text!r}: entries must be finite")
    if len(values) != dim:
        raise InputDimensionError(
            f"state vector has {len(values)} entries, system has dimension {dim}")
    return np.array(values)


def _bounded(kind, low, inclusive: bool, high=math.inf):
    """argparse type: a finite ``kind`` (int or float) in ``[low, high]`` or ``(low, high]``."""
    relation = ">=" if inclusive else ">"
    ceiling = "" if high == math.inf else f" and <= {high}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        # `value > high` first: an int beyond the float range stops there
        if (value > high or not math.isfinite(value) or value < low
                or (value == low and not inclusive)):
            raise argparse.ArgumentTypeError(
                f"must be finite and {relation} {low}{ceiling}, got {text!r}")
        return value

    return parse


_count = _bounded(int, 0, inclusive=False, high=MAX_COUNT)


def _integrator(text: str):
    """argparse type of ``simulate --method``: an ``Integrator`` by its value.

    It loads ``flow`` only when ``simulate`` is the command."""
    from .flow import Integrator

    try:
        return Integrator(text)
    except ValueError:
        choices = ", ".join(repr(m.value) for m in Integrator)
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {choices})") from None


def cmd_analyze(args) -> dict:
    matrix, digest = load_matrix_document(args.input)
    report = inspect_spectrum(matrix, args.tol)
    results = {
        "eigenvalues": _complex_list(report.eigenvalues),
        "real_diagonalisable": report.real_diagonalisable,
        "failure_kind": report.failure_kind.value,
        "condition": report.condition,
    }
    return build_report("analyze", digest, {"tol": args.tol}, results)


def cmd_synthesize(args) -> dict:
    from . import geometry
    from .synthesis import synthesize_canonical, verify_flow_identity

    matrix, digest = load_matrix_document(args.input)
    diag = real_diagonalise(matrix, args.tol)
    gs = synthesize_canonical(diag)
    constants = geometry.convexity_constants(diag)
    residual = verify_flow_identity(matrix, gs).max_residual
    save_system_document(args.out, matrix, diag, gs)
    results = {
        "out": args.out,
        "flow_residual": residual,
        "spd": True,  # inspect_spectrum refuses cond(t)**2 * tol >= 1, where is_spd fails
        **asdict(constants),
    }
    return build_report("synthesize", digest, {"tol": args.tol}, results)


def cmd_verify(args) -> dict:
    from .synthesis import _canonical_residual, verify_flow_identity

    matrix, diag, gs, digest = load_system_document(args.input)
    residual = verify_flow_identity(matrix, gs).max_residual
    factorisation = _factorisation_residual(matrix, diag)
    canonical = _canonical_residual(diag, gs)
    results = {"max_residual": residual, "factorisation_residual": factorisation,
               "canonical_residual": canonical,
               "passed": bool(max(residual, factorisation, canonical) <= args.tol)}
    return build_report("verify", digest, {"tol": args.tol}, results)


def _load_factored_system(path, tol: float):
    """:func:`load_system_document`, refusing a file whose ``transform`` and
    ``eigenvalues`` do not factor its ``matrix`` at ``tol``, or whose onsager,
    hessian and equilibrium are not the canonical pair of that factorisation."""
    from .synthesis import _canonical_residual

    matrix, diag, gs, digest = load_system_document(path)
    defect = _factorisation_residual(matrix, diag)
    if not defect <= tol:
        raise PreconditionError(f"{path}: transform and eigenvalues do not factor the "
                                f"matrix (residual {defect:.3g} above {tol:g})")
    defect = _canonical_residual(diag, gs)
    if not defect <= tol:
        raise PreconditionError(f"{path}: onsager, hessian and equilibrium are not the "
                                "canonical pair of transform and eigenvalues "
                                f"(residual {defect:.3g} above {tol:g})")
    return matrix, diag, gs, digest


def cmd_convexity(args) -> dict:
    from . import geometry

    _, diag, gs, digest = _load_factored_system(args.input, args.tol)
    constants = geometry.convexity_constants(diag)
    lam = constants.geodesic_lambda
    results = {
        **asdict(constants),
        "monotonicity_violation": geometry.check_strong_monotonicity(
            gs, constants.flat_lambda),
        "geodesic_violation": geometry.check_geodesic_convexity(gs, diag, lam),
        "contraction_violation": geometry.check_contraction(diag, lam),
        "spectrum_nonpositive": geometry.essential_range_check(diag, tol=args.tol),
    }
    return build_report("convexity", digest, {"tol": args.tol}, results)


def _simulate_one(args, matrix, diag, x0):
    from . import flow

    method = args.method
    if args.step is None:
        if method is not flow.Integrator.EXACT:
            raise InputFormatError(f"--step is required for method {method.value!r}")
        return flow.exact_trajectory(diag, x0, args.t_end, args.nodes)
    if args.step > args.t_end:
        raise InputFormatError(
            f"--step {args.step:g} exceeds --t-end {args.t_end:g} for method "
            f"{method.value!r}")
    if method is flow.Integrator.EXACT:  # the nodes rk4 and mm step through
        return flow._exact_at(diag, x0, flow._step_times(args.t_end, args.step)[0])
    if method is flow.Integrator.RK4:
        return flow.rk4_flow(matrix, x0, args.t_end, args.step)
    return flow.minimizing_movement_flow(diag, x0, args.t_end, args.step)


def cmd_simulate(args) -> dict:
    from . import flow

    if args.step is None:
        args.nodes = args.nodes or 200  # the exact method's default grid
    elif args.nodes is not None:
        raise InputFormatError("--nodes sets the exact method's grid without --step; "
                               "with --step the nodes are its multiples")
    if args.step is not None and args.t_end > MAX_COUNT * args.step:
        raise InputFormatError(
            f"--t-end / --step exceeds {MAX_COUNT} steps; raise --step")
    matrix, diag, gs, digest = _load_factored_system(args.input, DEFAULT_TOL)
    states = [_parse_state(text, gs.dim) for text in args.x0]
    if len(states) > 2:
        raise InputFormatError("at most two --x0 vectors are supported")

    with _warnings.catch_warnings(record=True) as collected:
        _warnings.simplefilter("always")
        trajectory, *companion = [_simulate_one(args, matrix, diag, x0) for x0 in states]
        caught = [str(w.message) for w in collected]

    audit = flow.dissipation_audit(gs, trajectory)
    results = {
        "out": args.out,
        "method": trajectory.method.value,
        "nodes": int(trajectory.times.size),
        "t_end": args.t_end,
        "final_state": trajectory.states[-1],
        "energy_initial": float(audit.energies[0]),
        "energy_final": float(audit.energies[-1]),
        "energy_monotone": audit.monotone,
        "dissipation_defect": audit.dissipation_defect,
        "contraction_defect": None,
    }
    if companion:
        from . import geometry

        lam = geometry.convexity_constants(diag).geodesic_lambda
        gaps = geometry.metric_distance(diag, trajectory.states, companion[0].states)
        results["contraction_defect"] = geometry.contraction_defect(
            gaps, gaps[0], lam, trajectory.times)
    # written last, so a failed run leaves no complete-looking trajectory
    write_trajectory_csv(args.out, trajectory)
    options = {"method": args.method.value, "t_end": args.t_end, "step": args.step}
    if args.step is None:  # only the exact method's node grid reads --nodes
        options["nodes"] = args.nodes
    return build_report("simulate", digest, options, results, caught)


def cmd_markov(args) -> dict:
    from . import markov

    if args.subcommand != "entropic-verify" and (args.samples, args.seed) != (None, None):
        raise InputFormatError(f"--samples and --seed are read only by entropic-verify, "
                               f"not {args.subcommand}")
    matrix, digest = load_generator_document(args.input)
    options = {"subcommand": args.subcommand, "tol": args.tol}

    if args.subcommand == "validate":
        try:
            markov.validate_generator(matrix, args.tol)
            results = {"subcommand": "validate", "valid": True, "failure": None}
        except (NegativeRateError, ColumnSumError) as exc:
            results = {"subcommand": "validate", "valid": False,
                       "failure": type(exc).__name__, "detail": str(exc)}
        return build_report("markov", digest, options, results)

    gen = markov.validate_generator(matrix, args.tol)
    if args.subcommand == "stationary":
        pi = markov.stationary_distribution(gen, args.tol)
        results = {"subcommand": "stationary", "distribution": pi}
    elif args.subcommand == "reversible":
        pi = markov.stationary_distribution(gen, args.tol)
        results = {"subcommand": "reversible",
                   "reversible": markov.is_reversible(gen, pi, args.tol),
                   "distribution": pi}
    else:  # entropic-verify
        options.update(samples=args.samples or 1000, seed=args.seed or 0)
        structure = markov.EntropicStructure.from_generator(gen, args.tol)
        report = markov.verify_entropic_flow(gen, structure, samples=options["samples"],
                                             seed=options["seed"], tol=args.tol)
        results = {"subcommand": "entropic-verify",
                   "max_residual": report.max_residual,
                   "num_samples": report.num_samples,
                   "passed": bool(report.max_residual <= 1e-9)}
    return build_report("markov", digest, options, results)


class _Parser(argparse.ArgumentParser):
    """The help goes out through :func:`write_stdout`: argparse drops a failed write."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            write_stdout(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gradflow",
        description="Decide whether dx/dt = A x is a gradient flow, "
                    "synthesize the gradient system, and certify its geometry.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=None):
        p.add_argument("--tol", type=_bounded(float, 0.0, inclusive=False),
                       default=DEFAULT_TOL, help="relative tolerance (default 1e-9)")
        if seed:  # the help texts of --samples and --seed; unset, they read None
            p.add_argument("--samples", type=_count, help=seed[0])
            p.add_argument("--seed", type=_bounded(int, 0, inclusive=True), help=seed[1])

    p = sub.add_parser("analyze", help="is the matrix real diagonalisable?")
    p.add_argument("input", help="matrix JSON file")
    common(p)
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("synthesize",
                       help="construct the gradient system of a diagonalisable matrix")
    p.add_argument("input", help="matrix JSON file")
    common(p)
    p.add_argument("--out", required=True, help="system JSON file to write")
    p.set_defaults(handler=cmd_synthesize)

    p = sub.add_parser("verify",
                       help="check a system file's flow identity and factorisation")
    p.add_argument("input", help="system JSON file")
    common(p)
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("convexity",
                       help="convexity moduli and exact inequality certificates")
    p.add_argument("input", help="system JSON file")
    common(p, seed=("ignored: the certificates are exact",) * 2)
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(handler=cmd_convexity)

    p = sub.add_parser("simulate", help="integrate the flow and audit dissipation")
    p.add_argument("input", help="system JSON file")
    p.add_argument("--x0", action="append", required=True,
                   help="comma-separated initial state; repeat for a pair")
    p.add_argument("--t-end", type=_bounded(float, 0.0, inclusive=True),
                   required=True, dest="t_end")
    p.add_argument("--method", type=_integrator, default="exact",
                   help="integrator (default exact)")
    p.add_argument("--step", type=_bounded(float, 0.0, inclusive=False),
                   help="step size (required for rk4 and mm; exact samples their nodes)")
    p.add_argument("--nodes", type=_count,
                   help="exact-method sample count without --step (default 200)")
    p.add_argument("--out", required=True, help="trajectory CSV to write")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("markov", help="generator validation and entropic checks")
    p.add_argument("input", help="generator JSON file (transposed convention)")
    p.add_argument("subcommand", choices=["validate", "stationary",
                                          "reversible", "entropic-verify"])
    common(p, seed=("entropic-verify's number of sampled checks (default 1000); "
                    "refused by the other subcommands",
                    "entropic-verify's sampling seed, echoed in its report (default 0); "
                    "refused by the other subcommands"))
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(handler=cmd_markov)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(divide="raise", over="raise", invalid="raise"):  # so exit 5
            text = render_json(args.handler(args))
        out_report = getattr(args, "out", None)
        if out_report and args.command not in ("synthesize", "simulate"):
            write_text(out_report, (text, "\n"))
        write_stdout(text + "\n")  # last: every --out file is whole by now
    except GradFlowError as exc:
        return _failure(type(exc), exc)
    except (np.linalg.LinAlgError, FloatingPointError, MemoryError) as exc:
        return _failure(GradFlowError, str(exc) or type(exc).__name__)
    return 0


def _failure(kind: type[GradFlowError], detail) -> int:
    """Write ``gradflow: <label>: <detail>`` to stderr and return the exit code
    of ``kind``; a closed or broken stderr loses the line, not the code."""
    try:
        sys.stderr.write(f"gradflow: {kind.label}: {detail}\n")
    except (AttributeError, OSError):
        pass
    return kind.exit_code


def run() -> NoReturn:
    """The process entry of the ``gradflow`` script and ``python -m gradflow.cli``.

    Runs :func:`main`, flushes stderr, and ends the process with ``os._exit``,
    without the interpreter's teardown.  ``main`` has already written and
    flushed the report, every output file is closed and no thread or child
    process is running.  The interpreter's final flush of stdout is skipped
    too, so a report or help text that could not be written to a broken
    stdout ends the process with ``main``'s exit code 2, not 120.
    argparse's ``SystemExit`` (``--help``, a usage error) keeps its code:
    the help has already been flushed through ``write_stdout``.  Any other
    exception that escapes ``main`` ends the process the ordinary way.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    try:
        sys.stderr.flush()
    except (AttributeError, OSError):  # stderr closed or broken: the code stands
        pass
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
