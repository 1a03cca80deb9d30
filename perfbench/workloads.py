"""The benchmark's two workloads, built from a seed.

A workload is a list of pipeline passes.  A pass is one input taken
through a fixed sequence of CLI commands; each command is one child
process with an expected exit code and a planted-truth check.  All six
commands run in every workload, so every per-command latency is measured
everywhere; what differs is which layers carry the time:

* ``small-chains``: d = 3 matrices and chains of n <= 100.  Start-up,
  argparse, small JSON files and the per-sample loop of the entropic check
  dominate; dense linear algebra is negligible.
* ``dense``: planted systems at d = 50, 200 and 500 through analyze ->
  synthesize -> verify -> convexity -> simulate with exact (an ``--x0``
  pair), RK4 and minimizing-movement steps.  The factorisations, the
  sampled certificates, the integrators and writing and re-reading
  multi-MB system files and trajectories dominate.  Two n = 100 chains
  keep markov in.

``small-chains`` also carries a known-defect probe: inputs that the
program gets wrong today.  It runs once per run, outside the measured
loop, and every invocation is reported by name with its verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import SystemFiles, check_refused
from planted import (
    PAPER_NONREVERSIBLE,
    PAPER_REVERSIBLE,
    PlantedMatrix,
    diagonalised_example,
    format_state,
    jordan,
    paper_chains,
    planted_chain,
    planted_system,
    rotation,
    write_generator,
    write_matrix,
)

EXIT_PRECONDITION = 4
SMALL_STEP = 2.0 ** -6      # powers of two, so t_end / step is an exact step count
DENSE_STEP = 2.0 ** -9
T_END = 1.0
MARKOV_SAMPLES = 1000       # the CLI default
DENSE_CONVEXITY_SAMPLES = 250

CERTIFY = ("analyze", "synthesize", "verify", "convexity")
INTEGRATE = ("simulate-exact", "simulate-rk4", "simulate-mm")
MARKOV = ("validate", "stationary", "reversible", "entropic-verify")


@dataclass
class Invocation:
    """One CLI call: ``gradflow <argv>``, run in the workload's directory."""

    command: str            # top-level CLI command, the unit of the per-command metrics
    label: str              # unique within its pass
    argv: list[str]
    expect_exit: int
    check: Callable[[checks.Outcome], list[float]]


@dataclass
class Pipeline:
    name: str
    invocations: list[Invocation]


@dataclass
class Workload:
    passes: list[Pipeline]
    known_defects: list[Pipeline] = field(default_factory=list)


def matrix_pipeline(m: PlantedMatrix, work: Path, files: SystemFiles, rng, steps,
                    step=SMALL_STEP, samples=1000) -> Pipeline:
    matrix = f"{m.name}.json"
    system = f"{m.name}.system.json"
    write_matrix(work / matrix, m.matrix)
    diagonalisable = m.failure == "None"
    invs = []
    for what in steps:
        if what == "analyze":
            invs.append(Invocation("analyze", what, ["analyze", matrix], 0,
                                   partial(checks.check_analyze, truth=m)))
        elif what == "synthesize" and diagonalisable:
            invs.append(Invocation("synthesize", what, ["synthesize", matrix, "--out", system], 0,
                                   partial(checks.check_synthesize, truth=m,
                                           system=work / system, files=files)))
        elif what == "synthesize":
            invs.append(Invocation("synthesize", what, ["synthesize", matrix, "--out", system],
                                   EXIT_PRECONDITION, check_refused))
        elif what == "verify":
            invs.append(Invocation("verify", what, ["verify", system], 0,
                                   partial(checks.check_verify, truth=m,
                                           system=work / system, files=files)))
        elif what == "convexity":
            invs.append(Invocation("convexity", what,
                                   ["convexity", system, "--samples", str(samples)], 0,
                                   partial(checks.check_convexity, truth=m,
                                           system=work / system, files=files)))
        else:
            method = what.removeprefix("simulate-")
            # The exact method gets an --x0 pair, so the contraction audit runs.
            states = [rng.standard_normal(m.dim) for _ in range(2 if method == "exact" else 1)]
            csv = f"{m.name}.{method}.csv"
            argv = ["simulate", system]
            # "--x0=..." because a state starting with "-" would read as an option.
            argv += [f"--x0={format_state(x0)}" for x0 in states]
            argv += ["--t-end", repr(T_END), "--method", method, "--step", repr(step),
                     "--out", csv]
            invs.append(Invocation("simulate", what, argv, 0,
                                   partial(checks.check_simulate, truth=m, method=method,
                                           states=states, t_end=T_END, step=step,
                                           csv_path=work / csv)))
    return Pipeline(m.name, invs)


def chain_pipeline(chain, work: Path) -> Pipeline:
    path = f"{chain.name}.generator.json"
    write_generator(work / path, chain.generator)
    invs = []
    for sub in MARKOV:
        argv = ["markov", path, sub]
        if sub == "entropic-verify" and not chain.reversible:
            invs.append(Invocation("markov", sub, argv, EXIT_PRECONDITION, check_refused))
        else:
            invs.append(Invocation("markov", sub, argv, 0,
                                   partial(checks.check_markov, chain=chain, subcommand=sub,
                                           samples=MARKOV_SAMPLES)))
    return Pipeline(chain.name, invs)


def small_chains(rng, work, files) -> Workload:
    matrices = [diagonalised_example("paper-reversible-matrix", PAPER_REVERSIBLE),
                diagonalised_example("paper-nonreversible-matrix", PAPER_NONREVERSIBLE),
                planted_system(rng, "planted-d3-sup-pos", 3, True),
                planted_system(rng, "planted-d3-sup-neg", 3, False)]
    passes = [matrix_pipeline(m, work, files, rng, CERTIFY + INTEGRATE) for m in matrices]
    passes += [matrix_pipeline(m, work, files, rng, ("analyze", "synthesize"))
               for m in (rotation(rng), jordan(rng))]
    chains = paper_chains() + [
        planted_chain(rng, f"chain-n{n}-{'rev' if rev else 'nonrev'}", n, rev)
        for n in (3, 20, 100) for rev in (True, False)]
    passes += [chain_pipeline(c, work) for c in chains]
    # Scalings that underflow or overflow the Frobenius norm (wrong today).
    paper = diagonalised_example("paper-nonreversible-matrix", PAPER_NONREVERSIBLE)
    huge = PlantedMatrix("paper-nonreversible-x1e200", paper.matrix * 1e200, "None",
                         paper.transform, paper.eigenvalues * 1e200)
    defects = [matrix_pipeline(m, work, files, rng, ("analyze", "synthesize"))
               for m in (rotation(rng, 1e-200), jordan(rng, 1e-200), huge)]
    return Workload(passes, known_defects=defects)


def dense(rng, work, files) -> Workload:
    # sup w < 0 at d = 50 and 500, > 0 at d = 200: both convexity branches run.
    systems = [planted_system(rng, "planted-d50", 50, False),
               planted_system(rng, "planted-d200", 200, True),
               planted_system(rng, "planted-d500", 500, False)]
    passes = [matrix_pipeline(m, work, files, rng, CERTIFY + INTEGRATE, step=DENSE_STEP,
                              samples=DENSE_CONVEXITY_SAMPLES) for m in systems]
    passes += [chain_pipeline(planted_chain(rng, f"chain-n100-{'rev' if rev else 'nonrev'}",
                                            100, rev), work) for rev in (True, False)]
    return Workload(passes)


WORKLOADS = {"small-chains": small_chains, "dense": dense}


def build(name: str, seed: int, work: Path, files: SystemFiles) -> Workload:
    return WORKLOADS[name](np.random.default_rng(seed), work, files)
