"""Integrators for the linear flow ``dx/dt = a @ x``.

Three routes: the exact spectral propagator, classical fixed-step RK4, and
implicit minimizing-movement steps in the transport metric of a
:class:`~gradflow.spectral.Diagonalisation`.  The exact propagator and the
minimizing-movement steps read that record's ``transform`` and its cached
inverse ``eigenvectors``.  A dissipation audit evaluates the energy along a
computed trajectory and checks the decay identity.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteStateError, SingularStepError
from .spectral import Diagonalisation, as_square_matrix, as_vector, guarded_exp
from .synthesis import CanonicalGradientSystem


class Integrator(str, enum.Enum):
    EXACT = "exact"
    RK4 = "rk4"
    MINIMIZING_MOVEMENT = "mm"


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: ``states[k]`` is the state at ``times[k]``."""

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
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(states))):
            raise ValueError("trajectory contains non-finite values")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "method", Integrator(self.method))

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def exact_flow(diag: Diagonalisation, x0, t: float) -> np.ndarray:
    """Propagate ``x0`` by time ``t`` with the spectral propagator.

    Computes ``eigenvectors @ diag(exp(t w)) @ transform @ x0`` with the
    record's cached ``eigenvectors = inv(transform)``.  ``x0``
    may be a single state or an array of states in rows.  Negative ``t``
    runs the flow backwards; the formula is its own inverse under t -> -t.
    Raises :class:`FlowOverflowError` when some ``t * w_i`` exceeds the
    double-precision exponential range; rescale time in that case.
    """
    growth = guarded_exp(t * diag.eigenvalues)
    x0 = np.asarray(x0, dtype=float)
    single = x0.ndim == 1
    points = np.atleast_2d(x0)
    if points.shape[1] != diag.dim:
        raise ValueError("state dimension does not match the diagonalisation")
    modes = (points @ diag.transform.T) * growth
    out = modes @ diag.eigenvectors.T
    return out[0] if single else out


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
    times = np.linspace(0.0, t_end, max(nodes, 2))
    modes = guarded_exp(np.outer(times, diag.eigenvalues)) * (diag.transform @ x0)
    states = modes @ diag.eigenvectors.T
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
    if remainder < 1e-12 * t_end:
        times[-1] = t_end
        return times, step
    return np.append(times, t_end), remainder


def _iterate(x0: np.ndarray, times: np.ndarray, step: float, last_step: float,
             propagator) -> np.ndarray:
    """States ``x_k = P x_{k-1} + shift`` with ``(P, shift) = propagator(h_k)``.

    Every interval but the last has length ``step``, so at most two
    propagators are built.  Raises :class:`NonFiniteStateError` at the first
    non-finite state.
    """
    full = propagator(step)
    final = full if last_step == step else propagator(last_step)
    states = np.empty((times.size, x0.size))
    states[0] = x0
    x = x0
    for k in range(1, times.size):
        matrix, shift = final if k == times.size - 1 else full
        x = matrix @ x + shift
        if not np.all(np.isfinite(x)):
            raise NonFiniteStateError(f"state became non-finite at t = {times[k]:g}")
        states[k] = x
    return states


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
    if step * np.linalg.norm(a) > 1.0:
        warnings.warn("step * norm(a) > 1: RK4 may be inaccurate "
                      "or unstable", RuntimeWarning, stacklevel=2)
    eye = np.eye(a.shape[0])

    def propagator(h):
        # Horner form of the degree-4 Taylor polynomial of exp(hA).
        ha = h * a
        poly = eye + ha / 4.0
        for divisor in (3.0, 2.0, 1.0):
            poly = eye + (ha @ poly) / divisor
        return poly, 0.0

    states = _iterate(x0, times, step, last_step, propagator)
    return Trajectory(times, states, Integrator.RK4)


def minimizing_movement_flow(gs: CanonicalGradientSystem, diag: Diagonalisation,
                             x0, t_end: float, tau: float) -> Trajectory:
    """Implicit steps ``x_{k+1} = argmin F(x) + d(x, x_k)^2 / (2 tau)``.

    For the quadratic energy and the transport metric of ``diag``, the flat
    metric with tensor ``g = transform.T @ transform``, each step is the
    linear system

        (g + tau * hessian) x_{k+1} = g @ x_k + tau * hessian @ equilibrium

    (the equilibrium term vanishes for systems centred at zero).  In the
    coordinates ``y = transform @ x`` it reads ``(I + tau m) y_{k+1} = y_k +
    tau inv(transform).T @ hessian @ equilibrium`` with ``m =
    inv(transform).T @ hessian @ inv(transform)``, where ``inv(transform)``
    is the record's cached ``eigenvectors``.  ``I + tau m`` has
    condition near 1 where the step matrix has about ``cond(transform)^2``;
    it is inverted once, each step is one matrix-vector product, and one
    matrix product maps the states back.  Steps of size ``tau`` cover
    ``[0, t_end]``, with one shorter final step when the horizon is not an
    exact multiple, so the trajectory ends at ``t_end``.  The step matrix
    must be positive definite, which bounds ``tau`` by the most negative
    curvature direction; :class:`SingularStepError` is raised otherwise.
    The shorter step's matrix is a convex combination of ``g`` and the full
    one, so it is definite too.  The scheme is backward Euler in disguise,
    first-order accurate in ``tau``.
    """
    x0 = as_vector(x0, gs.dim)
    times, last_step = _step_times(t_end, tau)
    t = diag.transform
    step_matrix = t.T @ t + tau * gs.hessian
    step_matrix = (step_matrix + step_matrix.T) / 2.0
    try:
        np.linalg.cholesky(step_matrix)
    except np.linalg.LinAlgError:
        raise SingularStepError(
            f"step matrix not positive definite at tau = {tau:g}; "
            "reduce the step") from None

    inv_t = diag.eigenvectors
    m = inv_t.T @ gs.hessian @ inv_t
    m = (m + m.T) / 2.0
    force = inv_t.T @ (gs.hessian @ gs.equilibrium)
    eye = np.eye(gs.dim)

    def propagator(h):
        resolvent = np.linalg.inv(eye + h * m)
        return resolvent, h * (resolvent @ force)

    y = _iterate(t @ x0, times, tau, last_step, propagator)
    states = y @ inv_t.T
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

    ``monotone`` is True when the energy never increases by more than
    ``1e-9 * scale`` between consecutive nodes, with scale the largest
    energy magnitude (floored at 1).  The defect is the worst interior-node
    mismatch of the chain rule ``dF/dt = -<grad, onsager grad>`` with the
    time derivative taken by central differences, so O(dt) is expected for
    sampled trajectories.
    """
    energies = np.atleast_1d(gs.energy(traj.states))
    scale = max(1.0, float(np.max(np.abs(energies))))
    monotone = bool(np.all(np.diff(energies) <= 1e-9 * scale))
    if energies.size < 3:
        return DissipationReport(energies, monotone, 0.0)
    dts = traj.times[2:] - traj.times[:-2]
    rate = (energies[2:] - energies[:-2]) / dts
    grads = (traj.states[1:-1] - gs.equilibrium) @ gs.hessian.T
    dissipation = np.sum((grads @ gs.onsager) * grads, axis=1)
    defect = float(np.max(np.abs(rate + dissipation)))
    return DissipationReport(energies, monotone, defect)
