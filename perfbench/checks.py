"""Planted-truth checks of the gradflow CLI's outputs.

Each check takes the truth from :mod:`planted`, the child's exit code and
output, and either raises :class:`CheckFailed` or returns the relative
errors it measured against the truth (the benchmark's ``accuracy_digits``
is the smallest ``-log10`` of these).  Nothing here imports gradflow: every
reference is recomputed from the planted factorisation with numpy.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from planted import PlantedChain, PlantedMatrix

TOL = 1e-9            # the CLI's default --tol, also used as the acceptance bound here
RADIUS = 1.0          # radius of the sampling ball of the convexity certificates
CONTRACTION_TIMES = (0.1, 1.0, 10.0)


class CheckFailed(Exception):
    """An output disagrees with the planted truth."""


@dataclass
class Outcome:
    """What one child process produced."""

    exit_code: int
    stdout: str
    stderr: str

    def report(self) -> dict:
        try:
            return json.loads(self.stdout)["results"]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"stdout is not a gradflow report: {exc}") from None


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def rel_error(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    expect(got.shape == want.shape, f"shape {got.shape}, truth {want.shape}")
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    return float(np.max(np.abs(got - want))) / scale if scale > 0 else float(np.max(np.abs(got)))


def within(name, err, bound=TOL) -> float:
    expect(err <= bound, f"{name}: relative error {err:.3g} above {bound:g}")
    return err


@dataclass(frozen=True)
class SystemFile:
    """What the benchmark reads back from a written system file."""

    matrix: np.ndarray
    onsager: np.ndarray
    hessian: np.ndarray
    transform: np.ndarray
    eigenvalues: np.ndarray


class SystemFiles:
    """Checks each written system file once per distinct content.

    A system file is rewritten on every pass with the same bytes, so the
    recomputation (a full parse and a few O(d^3) checks at d = 500) runs
    once per content digest; the digest itself is taken on every call.
    """

    def __init__(self):
        self._seen: dict[tuple[str, str], tuple[SystemFile, list[float]]] = {}

    def check(self, path: Path, truth: PlantedMatrix) -> tuple[SystemFile, list[float]]:
        data = path.read_bytes()
        key = (str(path), hashlib.sha256(data).hexdigest())
        if key not in self._seen:
            self._seen[key] = _check_system_file(json.loads(data), truth)
        return self._seen[key]


def _block(doc, key) -> np.ndarray:
    block = doc[key]
    m = np.array(block["rows"], dtype=float)
    expect(m.shape == (block["dim"], block["dim"]), f"system file: {key} is not square")
    return m


def _check_system_file(doc, truth: PlantedMatrix) -> tuple[SystemFile, list[float]]:
    expect(doc.get("kind") == "gradient-system", "system file: wrong kind")
    sf = SystemFile(_block(doc, "matrix"), _block(doc, "onsager"), _block(doc, "hessian"),
                    _block(doc, "transform"), np.array(doc["eigenvalues"], dtype=float))
    expect(np.array_equal(sf.matrix, truth.matrix), "system file: matrix differs from input")
    expect(np.all(np.array(doc["equilibrium"], dtype=float) == 0.0),
           "system file: equilibrium is not 0")
    a_scale = np.linalg.norm(truth.matrix)
    errors = [within("system eigenvalues", rel_error(sf.eigenvalues, truth.eigenvalues))]
    # The written transform must diagonalise the input with the planted spectrum.
    rebuilt = np.linalg.solve(sf.transform, truth.eigenvalues[:, None] * sf.transform)
    errors.append(within("system factorisation",
                         np.linalg.norm(rebuilt - truth.matrix) / a_scale, 1e3 * TOL))
    # Flow identity A = -K B, and K symmetric positive definite.
    errors.append(within("flow identity",
                         np.linalg.norm(truth.matrix + sf.onsager @ sf.hessian) / a_scale))
    expect(np.array_equal(sf.onsager, sf.onsager.T), "onsager is not symmetric")
    expect(np.array_equal(sf.hessian, sf.hessian.T), "hessian is not symmetric")
    k_eigs = np.linalg.eigvalsh(sf.onsager)
    expect(k_eigs[0] > TOL * np.max(np.abs(k_eigs)), "onsager is not positive definite")
    return sf, errors


def expected_constants(sf: SystemFile, truth: PlantedMatrix) -> list[dict]:
    """Convexity constants from the planted spectrum and the paper's case split.

    The norms come from the written transform (the program normalises the
    eigenvectors, so its transform is a row-scaling of the planted one).
    When the planted ``sup w`` is 0 (up to rounding) the computed one may
    carry either sign, so both branches are acceptable.
    """
    singular = np.linalg.svd(sf.transform, compute_uv=False)
    t_norm, inv_norm = singular[0], 1.0 / singular[-1]
    sup = float(np.max(truth.eigenvalues))
    if abs(sup) <= 1e-12 * np.max(np.abs(truth.eigenvalues)):
        signs = (True, False)
    else:
        signs = (sup > 0.0,)
    branches = []
    for positive in signs:
        if positive:
            flat, geo = t_norm ** 2, inv_norm ** 2 * t_norm ** 2
        else:
            flat, geo = inv_norm ** -2, 1.0 / (inv_norm ** 2 * t_norm ** 2)
        branches.append({"sup_eigenvalue": sup, "flat_lambda": -sup * flat,
                         "geodesic_lambda": -sup * geo, "flat_factor": flat,
                         "geodesic_factor": geo})
    return branches


def check_constants(res, sf: SystemFile, truth: PlantedMatrix) -> list[float]:
    # Constants are compared relative to max|w| * factor, so a planted sup of
    # 0 (computed as +-1e-16) is judged on an absolute scale.
    w_scale = float(np.max(np.abs(truth.eigenvalues)))
    failures = []
    for want in expected_constants(sf, truth):
        errs = []
        for key in ("flat_factor", "geodesic_factor"):
            errs.append(abs(res[key] - want[key]) / want[key])
        for key, factor in (("sup_eigenvalue", 1.0), ("flat_lambda", want["flat_factor"]),
                            ("geodesic_lambda", want["geodesic_factor"])):
            errs.append(abs(res[key] - want[key]) / (w_scale * factor))
        if max(errs) <= 1e3 * TOL:
            return errs
        failures.append(max(errs))
    raise CheckFailed(f"convexity constants: relative error {min(failures):.3g} "
                      "against the planted case split")


# ---------------------------------------------------------------- commands


def check_refused(out: Outcome) -> list[float]:
    """The CLI refused the input as a precondition failure (exit 4)."""
    expect("precondition failed" in out.stderr,
           f"expected a precondition failure, stderr: {out.stderr.strip()[:200]}")
    return []


def check_analyze(out: Outcome, truth: PlantedMatrix) -> list[float]:
    res = out.report()
    diagonalisable = truth.failure == "None"
    expect(res["real_diagonalisable"] is diagonalisable,
           f"real_diagonalisable={res['real_diagonalisable']}, truth {truth.failure}")
    expect(res["failure_kind"] == truth.failure,
           f"failure_kind={res['failure_kind']}, truth {truth.failure}")
    if not diagonalisable:
        return []
    values = np.array([complex(e["real"], e["imag"]) for e in res["eigenvalues"]])
    expect(np.all(values.imag == 0.0), "complex eigenvalue reported for a real spectrum")
    return [within("eigenvalues", rel_error(np.sort(values.real), truth.eigenvalues))]


def check_synthesize(out: Outcome, truth: PlantedMatrix, system: Path,
                     files: SystemFiles) -> list[float]:
    res = out.report()
    expect(res["spd"] is True, "report says onsager is not SPD")
    expect(res["flow_residual"] <= TOL, f"flow_residual {res['flow_residual']:.3g}")
    sf, errors = files.check(system, truth)
    return errors + [res["flow_residual"]] + check_constants(res, sf, truth)


def check_verify(out: Outcome, truth: PlantedMatrix, system: Path,
                 files: SystemFiles) -> list[float]:
    res = out.report()
    _, errors = files.check(system, truth)
    expect(res["passed"] is True, "verify did not pass")
    return errors + [within("verify max_residual", res["max_residual"])]


def check_convexity(out: Outcome, truth: PlantedMatrix, system: Path,
                    files: SystemFiles) -> list[float]:
    res = out.report()
    sf, errors = files.check(system, truth)
    errors = errors + check_constants(res, sf, truth)
    w = truth.eigenvalues
    b_norm = np.linalg.norm(sf.hessian, 2)
    t_norm = np.linalg.norm(sf.transform, 2)
    diameter = 2.0 * RADIUS
    # Each sampled violation must be rounding noise on the scale of the
    # quantities the inequality compares.
    scales = {
        "monotonicity_violation": b_norm * diameter ** 2,
        "geodesic_violation": (b_norm + abs(res["geodesic_lambda"]) * t_norm ** 2) * diameter ** 2,
        "contraction_violation": t_norm * diameter
        * max(1.0, float(np.exp(max(CONTRACTION_TIMES) * np.max(w)))),
    }
    for key, scale in scales.items():
        errors.append(within(key, res[key] / scale))
    expect(res["spectrum_nonpositive"] is bool(np.max(w) <= TOL * max(1.0, np.max(np.abs(w)))),
           "spectrum_nonpositive disagrees with the planted spectrum")
    return errors


def simulate_reference(truth: PlantedMatrix, method: str, x0, t_end: float,
                       step: float) -> np.ndarray:
    """Closed form of each discrete scheme's final state (``t_end / step`` steps)."""
    w, k = truth.eigenvalues, round(t_end / step)
    if method == "exact":
        multipliers = np.exp(t_end * w)
    elif method == "rk4":
        z = step * w
        multipliers = (1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24) ** k
    else:  # minimizing movement = backward Euler in the transform's coordinates
        multipliers = (1.0 - step * w) ** -float(k)
    return truth.propagate(multipliers, x0)


def check_simulate(out: Outcome, truth: PlantedMatrix, method: str, states, t_end: float,
                   step: float, csv_path: Path) -> list[float]:
    res = out.report()
    steps = round(t_end / step)
    expect(res["nodes"] == steps + 1, f"nodes={res['nodes']}, expected {steps + 1}")
    final = np.array(res["final_state"], dtype=float)
    want = simulate_reference(truth, method, states[0], t_end, step)
    errors = [within(f"{method} final state", rel_error(final, want), 1e3 * TOL)]
    if method in ("exact", "mm"):
        expect(res["energy_monotone"] is True, f"{method}: energy not monotone")
    if len(states) == 2:
        d0 = np.linalg.norm(want - simulate_reference(truth, method, states[1], t_end, step))
        scale = max(d0, np.linalg.norm(want))
        errors.append(within("contraction_defect", res["contraction_defect"] / scale))
    lines = csv_path.read_bytes().rstrip(b"\n").split(b"\n")
    expect(len(lines) == steps + 2, f"trajectory CSV has {len(lines)} lines")
    last = np.array([float(v) for v in lines[-1].split(b",")])
    expect(last[0] == t_end and np.array_equal(last[1:], final),
           "trajectory CSV's last row differs from the reported final state")
    return errors


def check_markov(out: Outcome, chain: PlantedChain, subcommand: str, samples: int) -> list[float]:
    res = out.report()
    expect(res["subcommand"] == subcommand, "wrong subcommand echoed")
    if subcommand == "validate":
        expect(res["valid"] is True, f"generator reported invalid: {res.get('failure')}")
        return []
    if subcommand == "entropic-verify":
        expect(res["passed"] is True and res["num_samples"] == samples,
               "entropic flow identity not verified")
        return [within("entropic max_residual", res["max_residual"])]
    if subcommand == "reversible":
        expect(res["reversible"] is chain.reversible,
               f"reversible={res['reversible']}, truth {chain.reversible}")
    return [within("stationary distribution",
                   rel_error(res["distribution"], chain.stationary), 1e3 * TOL)]
