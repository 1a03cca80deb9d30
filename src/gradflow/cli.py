"""Command-line front end.

Exit codes: 0 command completed (analysis findings such as "not
diagonalisable" are results, not errors), 2 parse error, 3 dimension
error, 4 precondition failure, 5 numeric failure.  Reports are printed to
stdout as deterministic JSON; set the GRADFLOW_LOG environment variable
(debug/info/warning) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings as _warnings
from dataclasses import asdict

import numpy as np

from .errors import ColumnSumError, GradFlowError, NegativeRateError
from .serialize import (
    InputDimensionError,
    InputFormatError,
    build_report,
    load_generator_document,
    load_matrix_document,
    load_system_document,
    render_json,
    save_system_document,
    write_text,
    write_trajectory_csv,
)
from .spectral import DEFAULT_TOL, inspect_spectrum, real_diagonalise

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_PRECONDITION = 4
EXIT_NUMERIC = 5

# Largest --samples, --nodes or --t-end / --step: each count sizes an array,
# so a larger one is refused (exit 2) before anything is allocated.
MAX_COUNT = 2 ** 24

_FAILURE_LABELS = {EXIT_PRECONDITION: "precondition failed",
                   EXIT_NUMERIC: "numeric failure"}


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
    gs = synthesize_canonical(diag, args.tol)
    constants = geometry.convexity_constants(diag)
    residual = verify_flow_identity(matrix, gs).max_residual
    save_system_document(args.out, matrix, diag, gs)
    results = {
        "out": args.out,
        "flow_residual": residual,
        "spd": True,  # else synthesize_canonical raised IllConditionedError
        **asdict(constants),
    }
    return build_report("synthesize", digest, {"tol": args.tol}, results)


def cmd_verify(args) -> dict:
    from .synthesis import verify_flow_identity

    matrix, _, gs, digest = load_system_document(args.input)
    residual = verify_flow_identity(matrix, gs).max_residual
    results = {"max_residual": residual, "passed": bool(residual <= args.tol)}
    return build_report("verify", digest, {"tol": args.tol}, results)


def cmd_convexity(args) -> dict:
    from . import geometry

    _, diag, gs, digest = load_system_document(args.input)
    constants = geometry.convexity_constants(diag)
    mono = geometry.check_strong_monotonicity(
        gs, constants.flat_lambda, samples=args.samples, seed=args.seed)
    geo = geometry.check_geodesic_convexity(
        gs, diag, constants.geodesic_lambda, samples=args.samples, seed=args.seed)
    unit = float(np.max(np.abs(diag.eigenvalues))) or 1.0  # so A's scale drops out
    contraction = geometry.check_contraction(
        diag, constants.geodesic_lambda, pairs=args.samples,
        times=(0.1 / unit, 1.0 / unit, 10.0 / unit), seed=args.seed)
    results = {
        **asdict(constants),
        "monotonicity_violation": mono,
        "geodesic_violation": geo,
        "contraction_violation": contraction,
        "spectrum_nonpositive": geometry.essential_range_check(diag, tol=args.tol),
    }
    options = {"tol": args.tol, "samples": args.samples, "seed": args.seed}
    return build_report("convexity", digest, options, results)


def _simulate_one(args, matrix, diag, gs, x0):
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
    return flow.minimizing_movement_flow(gs, diag, x0, args.t_end, args.step)


def cmd_simulate(args) -> dict:
    from . import flow

    if args.step is not None and args.t_end > MAX_COUNT * args.step:
        raise InputFormatError(
            f"--t-end / --step exceeds {MAX_COUNT} steps; raise --step")
    matrix, diag, gs, digest = load_system_document(args.input)
    states = [_parse_state(text, gs.dim) for text in args.x0]
    if len(states) > 2:
        raise InputFormatError("at most two --x0 vectors are supported")

    caught: list[str] = []
    with _warnings.catch_warnings(record=True) as collected:
        _warnings.simplefilter("always")
        trajectory = _simulate_one(args, matrix, diag, gs, states[0])
        companion = None
        if len(states) == 2:
            companion = _simulate_one(args, matrix, diag, gs, states[1])
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
    if companion is not None:
        from . import geometry

        lam = geometry.convexity_constants(diag).geodesic_lambda
        d0 = geometry.metric_distance(diag, trajectory.states[0], companion.states[0])
        gaps = np.linalg.norm(
            (companion.states - trajectory.states) @ diag.transform.T, axis=1)
        results["contraction_defect"] = geometry.contraction_defect(
            gaps, d0, lam, trajectory.times)
    # written last, so a failed run leaves no complete-looking trajectory
    write_trajectory_csv(args.out, trajectory)
    options = {"method": args.method.value, "t_end": args.t_end,
               "step": args.step, "nodes": args.nodes}
    return build_report("simulate", digest, options, results, caught)


def cmd_markov(args) -> dict:
    from . import markov

    matrix, digest = load_generator_document(args.input)
    options = {"subcommand": args.subcommand, "tol": args.tol,
               "samples": args.samples, "seed": args.seed}

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
        structure = markov.EntropicStructure.from_generator(gen, args.tol)
        report = markov.verify_entropic_flow(gen, structure,
                                             samples=args.samples,
                                             seed=args.seed, tol=args.tol)
        results = {"subcommand": "entropic-verify",
                   "max_residual": report.max_residual,
                   "num_samples": report.num_samples,
                   "passed": bool(report.max_residual <= 1e-9)}
    return build_report("markov", digest, options, results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradflow",
        description="Decide whether dx/dt = A x is a gradient flow, "
                    "synthesize the gradient system, and certify its geometry.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--tol", type=_bounded(float, 0.0, inclusive=False),
                       default=DEFAULT_TOL, help="relative tolerance (default 1e-9)")
        if seed:
            p.add_argument("--samples", type=_count, default=1000,
                           help="number of sampled checks (default 1000)")
            p.add_argument("--seed", type=_bounded(int, 0, inclusive=True), default=0,
                           help="sampling seed, echoed in the report (default 0)")

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

    p = sub.add_parser("verify", help="check a system file's flow identity")
    p.add_argument("input", help="system JSON file")
    common(p)
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("convexity",
                       help="convexity moduli and sampled inequality certificates")
    p.add_argument("input", help="system JSON file")
    common(p, seed=True)
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
    p.add_argument("--nodes", type=_count, default=200,
                   help="exact-method sample count (default 200)")
    p.add_argument("--out", required=True, help="trajectory CSV to write")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("markov", help="generator validation and entropic checks")
    p.add_argument("input", help="generator JSON file (transposed convention)")
    p.add_argument("subcommand", choices=["validate", "stationary",
                                          "reversible", "entropic-verify"])
    common(p, seed=True)
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(handler=cmd_markov)
    return parser


def _log_command(command: str) -> None:
    """Diagnostics on stderr at the GRADFLOW_LOG level; ``logging`` loads only then."""
    level_name = os.environ.get("GRADFLOW_LOG", "").upper()
    if not level_name:
        return
    import logging

    level = getattr(logging, level_name, None)
    if isinstance(level, int):
        logging.basicConfig(level=level, stream=sys.stderr,
                            format="%(name)s %(levelname)s %(message)s")
        logging.getLogger("gradflow").debug("command %s", command)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _log_command(args.command)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):  # so exit 5
            text = render_json(args.handler(args))
        out_report = getattr(args, "out", None)
        if out_report and args.command not in ("synthesize", "simulate"):
            write_text(out_report, (text, "\n"))
    except InputFormatError as exc:
        print(f"gradflow: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InputDimensionError as exc:
        print(f"gradflow: dimension error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except GradFlowError as exc:
        print(f"gradflow: {_FAILURE_LABELS[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (np.linalg.LinAlgError, FloatingPointError, MemoryError) as exc:
        print(f"gradflow: numeric failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERIC

    print(text)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
