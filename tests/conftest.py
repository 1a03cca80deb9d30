from collections import Counter

import numpy as np
import pytest

from gradflow import Diagonalisation


def make_transform(rng, dim, cond=10.0):
    """Random invertible matrix with condition number exactly ``cond``."""
    q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    singular = np.geomspace(1.0, 1.0 / cond, dim)
    return (q1 * singular) @ q2.T


def make_diagonalisation(rng, dim, cond=10.0, low=-5.0, high=1.0, min_gap=0.0):
    """Planted diagonalisation with eigenvalues drawn uniformly in [low, high]."""
    transform = make_transform(rng, dim, cond)
    while True:
        eigenvalues = np.sort(rng.uniform(low, high, size=dim))
        if dim == 1 or min_gap == 0.0 or np.min(np.diff(eigenvalues)) >= min_gap:
            break
    return Diagonalisation(transform, eigenvalues)


def blowup_diagonalisation():
    """``A = Q diag(700, 699.99) Q.T`` (``Q`` the 45-degree rotation) and a start
    ``x0 = Q (1e5, 1e5)`` whose state leaves the double range before t = 1."""
    c = np.sqrt(0.5)
    q = np.array([[c, -c], [c, c]])
    return Diagonalisation(q.T, np.array([700.0, 699.99])), q @ np.array([1e5, 1e5])


FACTORISATIONS = ("eig", "eigh", "eigvalsh", "svd", "inv", "solve", "cholesky")


@pytest.fixture
def linalg_counts(monkeypatch):
    """Counter of the ``numpy.linalg`` factorisations called from now on."""
    counts = Counter()
    for name in FACTORISATIONS:
        def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)
