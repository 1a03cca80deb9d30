"""Integrators for the linear flow ``dx/dt = a @ x``.

Three routes: the exact spectral propagator, classical fixed-step RK4, and
minimizing-movement steps in the transport metric of a
:class:`~gradflow.spectral.Diagonalisation`.  The exact trajectory and the
minimizing-movement scheme are diagonal in the modes ``z = T x`` of the
record, where the canonical energy is ``-sum_i w_i z_i^2 / 2``, so each is
one array of per-node mode factors (``exp(t w_i)``, or products of
``1 / (1 - h w_i)``) mapped back by :func:`_modal_rows`; RK4 steps its
matrix polynomial.  A dissipation audit evaluates the energy
along a computed trajectory and checks the decay identity.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteStateError, SingularStepError
from .spectral import (Diagonalisation, _unit_scale, as_square_matrix, as_states, as_vector,
                       guarded_exp)
from .synthesis import CanonicalGradientSystem, _quadratic_form


class Integrator(str, enum.Enum):
    EXACT = "exact"
    RK4 = "rk4"
    MINIMIZING_MOVEMENT = "mm"


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: ``states[k]`` is the state at ``times[k]``.  The one
    finiteness check: a non-finite state raises :class:`NonFiniteStateError`."""

    times: np.ndarray
    states: np.ndarray
    method: Integrator

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if times.ndim != 1 or states.ndim != 2 or states.shape[0] != times.size:
            raise ValueError("times and states shapes disagree")
        if times.size == 0 or times[0] != 0.0:
            raise ValueError("times must start at 0")
        if not (np.all(np.diff(times) > 0.0) and np.all(np.isfinite(times))):
            raise ValueError("times must be finite and strictly increasing")
        finite = np.all(np.isfinite(states), axis=1)
        if not finite.all():
            raise NonFiniteStateError(
                f"state became non-finite at t = {times[np.argmin(finite)]:g}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "method", Integrator(self.method))


def exact_flow(diag: Diagonalisation, x0, t: float) -> np.ndarray:
    """Propagate ``x0`` by time ``t`` with the spectral propagator.

    Computes ``eigenvectors @ diag(exp(t w)) @ transform @ x0`` by
    :func:`_exact_rows`, with the record's cached ``eigenvectors``.  ``x0``
    may be a single finite state or an array of them in rows, as
    :func:`~gradflow.spectral.as_states` checks.  Negative ``t`` runs the
    flow backwards; the formula is its own inverse under t -> -t.
    Raises :class:`FlowOverflowError` when some ``t * w_i`` exceeds the
    double-precision exponential range in a mode that some start excites;
    rescale time in that case.
    """
    return _exact_rows(diag, as_states(x0, diag.dim), t * diag.eigenvalues)


def _modal_rows(from_modes: np.ndarray, factors: np.ndarray,
                coefficients: np.ndarray) -> np.ndarray:
    """``from_modes @ (factors * c)`` for the modal coefficients ``c`` of
    one start or of each row of ``coefficients`` (``x0 @ to_modes.T``)."""
    return (factors * coefficients) @ from_modes.T


def _exact_rows(diag: Diagonalisation, x0: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """``eigenvectors @ (exp(exponents) * (transform @ x))`` for ``x = x0`` or
    each row of ``x0``; ``exponents`` is ``t w`` or one such row per node.

    A mode whose coefficient ``(transform @ x)_i`` is exactly 0 in every
    start stays exactly 0 at every time, so its exponent is not taken: only
    an excited mode past ``EXP_GUARD`` raises :class:`FlowOverflowError`."""
    coefficients = x0 @ diag.transform.T
    excited = np.any(np.atleast_2d(coefficients) != 0.0, axis=0)
    growth = guarded_exp(np.where(excited, exponents, 0.0))
    return _modal_rows(diag.eigenvectors, growth, coefficients)


def exact_trajectory(diag: Diagonalisation, x0, t_end: float,
                     nodes: int = 200) -> Trajectory:
    """Sample the exact flow at ``nodes`` uniform times on ``[0, t_end]``."""
    x0 = as_vector(x0, diag.dim)
    if t_end < 0.0:
        raise ValueError("t_end must be non-negative")
    if nodes < 1:
        raise ValueError("need at least one node")
    if t_end == 0.0:
        return Trajectory(np.zeros(1), x0[None, :], Integrator.EXACT)
    return _exact_at(diag, x0, np.linspace(0.0, t_end, max(nodes, 2)))


def _exact_at(diag: Diagonalisation, x0: np.ndarray, times: np.ndarray) -> Trajectory:
    """The exact flow from the state ``x0`` sampled at ``times`` (from 0, increasing)."""
    with np.errstate(over="ignore", invalid="ignore"):  # Trajectory reports it
        states = _exact_rows(diag, x0, np.outer(times, diag.eigenvalues))
    states[0] = x0
    return Trajectory(times, states, Integrator.EXACT)


def _step_times(t_end: float, step: float) -> tuple[np.ndarray, float]:
    """Nodes ``0, step, 2 step, ...`` ending at ``t_end``, and the last step.

    When the horizon is not an exact multiple of ``step`` the last interval
    is a shorter remainder; otherwise the last step is ``step``.  Raises
    ValueError unless ``0 < step <= t_end``.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if t_end < step:
        raise ValueError("step must not exceed t_end")
    n_full = int(np.floor(t_end / step + 1e-12))
    times = step * np.arange(n_full + 1)
    remainder = t_end - times[-1]
    if remainder <= 1e-12 * t_end:
        times[-1] = t_end
        return times, step
    return np.append(times, t_end), remainder


def rk4_flow(a, x0, t_end: float, step: float) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta for ``dx/dt = a @ x``.

    Steps of size ``step`` cover ``[0, t_end]``, with one shorter final step
    when the horizon is not an exact multiple.  For a linear field one RK4
    step of size ``h`` is the fixed matrix polynomial
    ``I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24``; it is formed once (twice
    with a remainder step) and each step is one matrix-vector product.
    Emits a RuntimeWarning when ``step * norm(a) > 1`` in the Frobenius norm,
    never below the operator norm (an accuracy/stability advisory, not an
    error), and raises :class:`NonFiniteStateError` if the state blows up.
    """
    a = as_square_matrix(a)
    x0 = as_vector(x0, a.shape[0])
    times, last_step = _step_times(t_end, step)
    if np.linalg.norm(step * a) > 1.0:
        warnings.warn("step * norm(a) > 1: RK4 may be inaccurate "
                      "or unstable", RuntimeWarning, stacklevel=2)
    eye = np.eye(a.shape[0])

    def propagator(h):
        # Horner form of the degree-4 Taylor polynomial of exp(hA).
        ha = h * a
        poly = eye + ha / 4.0
        for divisor in (3.0, 2.0, 1.0):
            poly = eye + (ha @ poly) / divisor
        return poly

    full = propagator(step)
    final = full if last_step == step else propagator(last_step)
    states = np.empty((times.size, x0.size))
    states[0] = x = x0
    with np.errstate(over="ignore", invalid="ignore"):  # Trajectory reports it
        for k in range(1, times.size):
            states[k] = x = (final if k == times.size - 1 else full) @ x
            if not np.all(np.isfinite(x)):
                break  # stop at the first bad node rather than step on nan
    return Trajectory(times[:k + 1], states[:k + 1], Integrator.RK4)


def minimizing_movement_flow(diag: Diagonalisation, x0, t_end: float,
                             tau: float) -> Trajectory:
    """Implicit steps ``x_{k+1} = argmin F(x) + d(x, x_k)^2 / (2 tau)``.

    The energy is the canonical ``F(x) = -<diag(w) T x, T x> / 2`` and the
    metric the transport metric ``d(x, y) = |T (y - x)|`` of ``diag``
    (``T = diag.transform``, ``w = diag.eigenvalues``): the pair that
    :func:`~gradflow.synthesis.synthesize_canonical` builds.  A step of size
    ``h`` solves ``(T.T T + h B) x_{k+1} = T.T T x_k`` with
    ``B = -T.T diag(w) T``.  In the modes ``z = T x`` the energy decouples,
    so a step divides each ``z_i`` by ``1 - h w_i``: the states are the
    cumulative products of those factors, mapped back by
    :func:`_modal_rows` with the record's cached ``eigenvectors``.  Steps of
    size ``tau`` cover ``[0, t_end]``, with one shorter final step when the
    horizon is not an exact multiple, so the trajectory ends at ``t_end``.
    The step matrix ``T.T (I - h diag(w)) T`` is positive definite iff every
    ``1 - h w_i > 0``; :class:`SingularStepError` is raised unless that holds
    for every step.  A non-finite state raises :class:`NonFiniteStateError`.
    The scheme is backward Euler in disguise, first-order accurate in
    ``tau``.
    """
    x0 = as_vector(x0, diag.dim)
    times, _ = _step_times(t_end, tau)
    growth = 1.0 - np.outer(np.diff(times), diag.eigenvalues)  # a row per step
    if not np.min(growth) > 0.0:
        raise SingularStepError(
            f"step matrix not positive definite at tau = {tau:g}; "
            "reduce the step")
    with np.errstate(over="ignore", invalid="ignore"):  # Trajectory reports it
        factors = np.cumprod(np.vstack([np.ones(diag.dim), 1.0 / growth]), axis=0)
        states = _modal_rows(diag.eigenvectors, factors, x0 @ diag.transform.T)
    states[0] = x0
    return Trajectory(times, states, Integrator.MINIMIZING_MOVEMENT)


@dataclass(frozen=True)
class DissipationReport:
    """Energy profile of a trajectory and its decay-identity defect."""

    energies: np.ndarray
    monotone: bool
    dissipation_defect: float


def dissipation_audit(gs: CanonicalGradientSystem, traj: Trajectory) -> DissipationReport:
    """Evaluate the energy along a trajectory and audit its decay.

    ``monotone`` is True when the energy never rises between consecutive
    nodes by more than ``1e-9 * norm(hessian) * max_k |x_k - eq|^2``, a
    bound on ``2 |F(x_k)|`` (Frobenius norm, unit-scaled as in ``spectral``).
    The defect is the worst interior-node mismatch of the chain rule
    ``dF/dt = -<grad, onsager grad>``, relative to ``norm(onsager) *
    norm(hessian)**2 * max_k |x_k - eq|^2`` plus the rounding of the energy
    difference, ``(d + 2) 2**-53 norm(hessian) max_k |x_k - eq|^2 / dt_k``,
    with ``dF/dt`` taken by central differences, so O(dt) is expected.
    The energy rises, the time steps, the gradients and the onsager operator
    are read on power-of-two copies, so ``2**k`` changes no verdict.
    """
    energies = np.atleast_1d(gs.energy(traj.states))
    (delta, ed), (hessian, eb) = map(_unit_scale, (traj.states - gs.equilibrium, gs.hessian))
    # |B| max_k |x_k - eq|^2 in units of 2**(eb + 2 ed)
    spread = np.linalg.norm(hessian) * np.max(np.sum(delta * delta, axis=1))
    monotone = bool(np.all(np.ldexp(np.diff(energies), -eb - 2 * ed) <= 1e-9 * spread))
    if energies.size < 3:
        return DissipationReport(energies, monotone, 0.0)
    (rise, er), (dts, et), (grads, eg), (onsager, ek) = map(_unit_scale, (
        energies[2:] - energies[:-2], traj.times[2:] - traj.times[:-2],
        gs.energy_grad(traj.states[1:-1]), gs.onsager))
    # exponents of |K| |B|^2 max_k |x_k - eq|^2 and of |B| max_k |x_k - eq|^2 / dt
    bound, noise = ek + 2 * eb + 2 * ed, eb + 2 * ed - et
    top = max(bound, noise)
    mismatch = np.abs(np.ldexp(rise / dts, er - et - top)
                      + np.ldexp(_quadratic_form(onsager, grads), 2 * eg + ek - top))
    scale = (np.ldexp(np.linalg.norm(onsager) * np.linalg.norm(hessian) * spread, bound - top)
             + np.ldexp((gs.dim + 2) * 2.0 ** -53 * spread / dts, noise - top))
    # spread = 0 only where x = eq at every node or B = 0: no energy, no mismatch
    return DissipationReport(energies, monotone,
                             float(np.max(mismatch / scale)) if spread else 0.0)
