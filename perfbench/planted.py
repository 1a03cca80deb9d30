"""Seeded inputs with planted ground truth.

Every matrix is built from a known factorisation ``A = inv(T) diag(w) T``
(or is a fixed example whose factorisation is computed here with numpy),
and every chain from a known stationary distribution ``pi``.  The program
under test only ever sees the JSON files written by :func:`write_matrix`
and :func:`write_generator`; the truth stays in this process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Copies of gradflow.markov.reversible_three_state / nonreversible_three_state
# (the paper's two 3-state chains, transposed convention).
PAPER_REVERSIBLE = np.array([[-2.0, 1.0, 1.0],
                             [1.0, -2.0, 1.0],
                             [1.0, 1.0, -2.0]])
PAPER_NONREVERSIBLE = np.array([[-2.0, 0.0, 2.0],
                                [1.0, -3.0, 2.0],
                                [1.0, 3.0, -4.0]])


@dataclass(frozen=True)
class PlantedMatrix:
    """A matrix together with the truth about it.

    ``failure`` is the classification the program must report: "None"
    (real diagonalisable, with ``transform``/``eigenvalues`` set),
    "ComplexSpectrum" or "Defective".
    """

    name: str
    matrix: np.ndarray
    failure: str = "None"
    transform: np.ndarray | None = None
    eigenvalues: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def propagate(self, multipliers, x0) -> np.ndarray:
        """``inv(T) diag(multipliers) T x0`` with the planted factorisation."""
        return np.linalg.solve(self.transform, multipliers * (self.transform @ x0))


@dataclass(frozen=True)
class PlantedChain:
    """A transposed generator with its planted stationary distribution."""

    name: str
    generator: np.ndarray
    stationary: np.ndarray
    reversible: bool


def make_transform(rng, dim, cond):
    """Random invertible matrix with condition number exactly ``cond``
    (the construction of ``tests/conftest.py::make_transform``)."""
    q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return (q1 * np.geomspace(1.0, 1.0 / cond, dim)) @ q2.T


def planted_system(rng, name, dim, sup_positive, cond=100.0) -> PlantedMatrix:
    """``A = inv(T) diag(w) T`` with ``cond(T) = cond`` and separated real ``w``.

    The eigenvalues are a jittered grid on [-5, 1] (largest one positive)
    or on [-5, -1] (all negative), so both branches of the convexity case
    split can be planted and no two eigenvalues come closer than 0.6 grid
    spacings.
    """
    high = 1.0 if sup_positive else -1.0
    grid = np.linspace(-5.0, high, dim)
    spacing = (high + 5.0) / max(dim - 1, 1)
    w = np.sort(grid + rng.uniform(-0.2, 0.2, dim) * spacing)
    t = make_transform(rng, dim, cond)
    a = np.linalg.solve(t, w[:, None] * t)
    return PlantedMatrix(name, a, "None", t, w)


def diagonalised_example(name, a) -> PlantedMatrix:
    """A fixed real-diagonalisable example, factorised here with numpy."""
    w, vectors = np.linalg.eig(a)
    if np.iscomplexobj(w):
        raise ValueError(f"{name}: example must have a real spectrum")
    order = np.argsort(w)
    return PlantedMatrix(name, a, "None", np.linalg.inv(vectors[:, order]), w[order])


def rotation(rng, scale=1.0) -> PlantedMatrix:
    """2x2 rotation generator ``[[a, -b], [b, a]]``: eigenvalues ``a +- ib``."""
    a, b = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
    return PlantedMatrix(f"rotation-x{scale:g}",
                         np.array([[a, -b], [b, a]]) * scale, "ComplexSpectrum")


def jordan(rng, scale=1.0) -> PlantedMatrix:
    """3x3 Jordan block: one eigenvalue, one eigenvector."""
    lam = rng.uniform(-2.0, 1.0)
    block = lam * np.eye(3) + np.diag([1.0, 1.0], k=1)
    return PlantedMatrix(f"jordan-x{scale:g}", block * scale, "Defective")


def planted_chain(rng, name, n, reversible) -> PlantedChain:
    """Chain with planted stationary distribution ``pi``.

    Symmetric conductances ``S`` give the reversible rates
    ``q[i, j] = S[i, j] / pi[j]`` (rate from j to i).  The non-reversible
    variant adds a circulation ``C`` around the cycle 0 -> 1 -> ... -> 0.
    ``C`` is antisymmetric with zero row sums, so it keeps ``pi`` stationary,
    and it is at most half of each cycle edge's conductance, so every rate
    stays positive.
    """
    pi = rng.uniform(0.5, 1.5, n)
    pi /= pi.sum()
    upper = np.triu(rng.uniform(0.5, 1.5, (n, n)), 1)
    flux = upper + upper.T
    if not reversible:
        ring = np.roll(np.eye(n), 1, axis=0)          # ring[i+1, i] = 1
        strength = 0.5 * np.min(flux[ring > 0])
        flux = flux + strength * (ring - ring.T)
    rates = flux / pi[None, :]
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=0))
    return PlantedChain(name, rates, pi, reversible)


def paper_chains() -> list[PlantedChain]:
    uniform = np.full(3, 1.0 / 3.0)
    return [PlantedChain("paper-reversible", PAPER_REVERSIBLE, uniform, True),
            PlantedChain("paper-nonreversible", PAPER_NONREVERSIBLE, uniform, False)]


def format_state(x) -> str:
    """``--x0`` argument that round-trips ``x`` exactly."""
    return ",".join(repr(float(v)) for v in x)


def write_matrix(path: Path, a) -> None:
    path.write_text(json.dumps({"dim": int(a.shape[0]), "rows": a.tolist()}),
                    encoding="utf-8")


def write_generator(path: Path, a) -> None:
    path.write_text(json.dumps({"convention": "transposed", "dim": int(a.shape[0]),
                                "rows": a.tolist()}), encoding="utf-8")
