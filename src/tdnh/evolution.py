"""Time evolution, smooth eigen-trajectories, and phase accumulation.

The observable expansion basis is the instantaneous eigensystem of the
energy operator, not of the Hamiltonian; expanded in that basis the
accumulated geometric phase is real, also where the static spectrum is
complex.  The geometric-phase rate for level n is

    rate_n = i <psi_n| rho (d/dt + eta^-1 eta_dot) |psi_n>,

with the state metric-normalized.  Equivalently, rate_n = i <chi_n|d/dt
chi_n> for chi_n = eta psi_n, which is the mapped-Hermitian-frame form
used as a cross check.

Gauge handling: trajectories are phase-aligned by maximal overlap between
consecutive points (discrete parallel transport), so the rate integrand
carries no gauge spike and the phase of a closed loop lives almost
entirely in the endpoint holonomy <psi_n(0)|rho|psi_n(T)>.  Loop totals
add that closing term and are compared modulo 2 pi; they are invariant
under smooth periodic rephasings of the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tdnh.linalg import (
    DefectiveMatrixError,
    adjoint,
    eig_biorthogonal,
    first_index,
    metric_normalized,
    on_times,
    rk4_transfer,
    shape_generic,
)
from tdnh.model import ParameterPath, ScenarioSolution, coefficient_value

__all__ = [
    "TimeGrid",
    "NormDriftError",
    "LevelCrossingError",
    "GaugeAlignmentError",
    "OpenPathError",
    "NonRealEnergyError",
    "EigenTrajectory",
    "BerryLoopResult",
    "AdiabaticDecomposition",
    "tdse_integrate",
    "eigen_trajectory",
    "scenario_eigen_trajectory",
    "dynamical_phase",
    "berry_rate",
    "berry_rates",
    "hermitian_frame_rates",
    "geometric_phase",
    "berry_phase_loop",
    "path_closure_residual",
    "closed_form_berry_hermitian_map",
    "closed_form_berry_nonhermitian_map",
    "adiabatic_decompose",
    "wrap_angle",
]


class NormDriftError(RuntimeError):
    """Metric norm drifted: the step size is too coarse for this drive.

    ``index`` and ``t`` name the first grid point past the drift limit.
    """

    def __init__(self, message: str, index: int | None = None, t: float | None = None):
        super().__init__(message)
        self.index = index
        self.t = t


class LevelCrossingError(RuntimeError):
    """Level matching between consecutive grid points is ambiguous."""


class GaugeAlignmentError(RuntimeError):
    """Consecutive eigenvector overlap too small for a trusted gauge."""


class OpenPathError(ValueError):
    """The parameter path does not close over the grid."""


class NonRealEnergyError(ValueError):
    """Instantaneous energies carry an imaginary part above tolerance."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with ``steps`` intervals (``steps + 1`` points)."""

    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if not self.stop > self.start:
            raise ValueError("grid needs stop > start")
        if int(self.steps) != self.steps or self.steps < 2:
            raise ValueError("grid needs an integer steps >= 2")

    @property
    def dt(self) -> float:
        return (self.stop - self.start) / self.steps

    @property
    def n_points(self) -> int:
        return self.steps + 1

    def times(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps + 1)

    def half_step_times(self) -> np.ndarray:
        """The 2 steps + 1 times t_0, t_0 + dt/2, t_1, ..., t_N; the even
        entries are :meth:`times` exactly."""
        return np.linspace(self.start, self.stop, 2 * self.steps + 1)


def tdse_integrate(
    h_fun: Callable[[float], np.ndarray],
    psi0,
    grid: TimeGrid,
    *,
    metric: Callable[[float], np.ndarray] | None = None,
    drift_limit: float = 1e-3,
) -> np.ndarray:
    """RK4 solution of i d/dt psi = H(t) psi on the grid.

    H is evaluated once over the grid's half-step times and turned into
    RK4 step matrices (:func:`~tdnh.linalg.rk4_transfer`); only the
    matrix-vector steps run in sequence.
    When a metric function is supplied, <psi|rho|psi> is monitored along
    the trajectory; drift beyond ``drift_limit`` (relative) aborts with
    :class:`NormDriftError` at the first such grid point, which is the
    step-size guard.
    Returns the (n_points, dim) state trajectory.
    """
    psi = np.asarray(psi0, dtype=complex).reshape(-1)
    if not np.any(psi):
        raise ValueError("initial state must be nonzero")
    times = grid.times()
    h = np.asarray(on_times(h_fun, grid.half_step_times()), dtype=complex)
    transfer = rk4_transfer(-1j * h, grid.dt)
    out = np.empty((times.shape[0], psi.shape[0]), dtype=complex)
    out[0] = psi

    rho = None
    if metric is not None:
        rho = np.asarray(on_times(metric, times), dtype=complex)
        norm0 = np.vdot(psi, rho[0] @ psi).real

    for k, step in enumerate(transfer, 1):
        out[k] = psi = step @ psi
        if rho is not None:
            norm = np.vdot(psi, rho[k] @ psi).real
            if abs(norm - norm0) > drift_limit * (1.0 + abs(norm0)):
                raise NormDriftError(
                    f"metric norm drifted by {abs(norm - norm0):.3e} at t={times[k]:.6g}; "
                    "use a finer grid",
                    index=k, t=float(times[k]),
                )
    return out


@dataclass(frozen=True)
class EigenTrajectory:
    """Instantaneous eigensystem of a time-indexed operator, tracked smoothly.

    ``right[k, :, n]`` is the metric-normalized right vector of level n at
    ``grid.times()[k]``; levels are matched between consecutive points by
    maximal left/right overlap and phase-aligned so those overlaps have
    positive real part.  ``overlaps[k, n]`` is |<phi_n(t_k)|psi_n(t_k+1)>|.
    """

    grid: TimeGrid
    energies: np.ndarray   # (n_points, dim) complex
    right: np.ndarray      # (n_points, dim, dim)
    left: np.ndarray       # (n_points, dim, dim)
    overlaps: np.ndarray   # (n_points - 1, dim) float

    @property
    def dim(self) -> int:
        return self.energies.shape[1]

    @property
    def min_overlap(self) -> float:
        return float(np.min(self.overlaps)) if self.overlaps.size else 1.0

    def rephased(self, phases: np.ndarray) -> "EigenTrajectory":
        """Apply per-level phase functions exp(i*phases[k, n]) to the states.

        Both vectors of a pair rotate together, preserving
        biorthonormality.  Used to probe gauge invariance.
        """
        factor = np.exp(1j * np.asarray(phases))
        right = self.right * factor[:, None, :]
        left = self.left * factor[:, None, :]
        return EigenTrajectory(self.grid, self.energies, right, left, self.overlaps)


def eigen_trajectory(
    op_fun: Callable[[float], np.ndarray],
    metric_fun: Callable[[float], np.ndarray],
    grid: TimeGrid,
    *,
    cond_limit: float = 1e8,
    tie_tol: float = 1e-6,
) -> EigenTrajectory:
    """Metric-normalized eigensystems of op_fun on the grid, tracked smoothly.

    The first point is ordered by descending real part.  Each later point
    takes its levels by greedy maximal |<phi_n(t_k-1)|psi_m(t_k)>| in level
    order and its phases so that those overlaps are real and positive.
    Everything runs on (N, n, n) stacks; errors name the grid time of the
    first point at which they occur.
    """
    times = grid.times()
    ops = np.asarray(on_times(op_fun, times), dtype=complex)
    metrics = np.asarray(on_times(metric_fun, times), dtype=complex)
    try:
        return _track(ops, metrics, grid, times, cond_limit, tie_tol)
    except DefectiveMatrixError as exc:
        k = exc.index
        if k > 1:  # a level crossing before the defective point is met first
            _track(ops[:k], metrics[:k], grid, times[:k], cond_limit, tie_tol)
        raise DefectiveMatrixError(f"{exc} at t={times[k]:.6g}", index=k) from None


def _track(ops, metrics, grid, times, cond_limit, tie_tol) -> EigenTrajectory:
    es = metric_normalized(eig_biorthogonal(ops, cond_limit=cond_limit, ordering="none"), metrics)
    first = np.lexsort((-es.values[0].imag, -es.values[0].real))  # descending real part
    order = _match_levels(es.left, es.right, first, times, tie_tol)
    values = np.take_along_axis(es.values, order, axis=1)
    right = np.take_along_axis(es.right, order[:, None, :], axis=2)
    left = np.take_along_axis(es.left, order[:, None, :], axis=2)

    # Each point is rephased by the phase of its overlap with the rephased
    # previous point, so the phases add up along the grid.  A vanishing
    # overlap leaves its point as it is and restarts the sum.
    link = np.sum(np.conj(left[:-1]) * right[1:], axis=1)
    overlaps = np.abs(link)
    angles = np.where(overlaps > 0.0, np.angle(link), 0.0)
    total = np.concatenate((np.zeros((1, link.shape[1])), np.cumsum(angles, axis=0)))
    restart = np.concatenate((np.ones((1, link.shape[1]), bool), overlaps == 0.0))
    start = np.maximum.accumulate(np.where(restart, np.arange(len(times))[:, None], 0), axis=0)
    phase = np.exp(1j * (total - np.take_along_axis(total, start, axis=0)))[:, None, :]
    return EigenTrajectory(grid, values, right / phase, left / phase, overlaps)


def _match_levels(left: np.ndarray, right: np.ndarray, first: np.ndarray, times: np.ndarray,
                  tie_tol: float) -> np.ndarray:
    """(N, n) level order: entry [k, n] is the eigenvector index of level n at t_k.

    ``first`` orders t_0.  Level n at t_k takes the index with the largest
    overlap with level n at t_k-1 among those not taken by lower levels.
    As that choice depends on the order at t_k-1, the orders are found as
    a fixed point: assume an order for every t_k-1, choose at every t_k,
    compose the choices along the grid, and repeat until the assumed
    orders are the composed ones.  Every pass makes at least one more
    point final; orders that do not depend on their predecessor settle in
    two passes.
    """
    n_points, dim = right.shape[0], right.shape[-1]
    overlap = np.abs(adjoint(left[:-1]) @ right[1:])   # [k, index at t_k, index at t_k+1]
    rows = np.arange(n_points - 1)
    order = np.tile(first, (n_points, 1))
    while True:
        previous = order[:-1]
        chosen = np.empty_like(previous)
        taken = np.zeros((n_points - 1, dim), dtype=bool)
        tie = np.zeros(n_points - 1, dtype=bool)
        tie_values = np.zeros((n_points - 1, 2))
        for level in range(dim):
            row = np.where(taken, -np.inf, overlap[rows, previous[:, level]])
            best = np.argmax(row, axis=1)
            best_value = row[rows, best]
            row[rows, best] = -np.inf
            runner_up = np.max(row, axis=1)
            new_tie = ~tie & (runner_up > -np.inf) & (np.abs(best_value - runner_up) <= tie_tol)
            tie_values[new_tie] = np.stack((best_value, runner_up), axis=1)[new_tie]
            tie |= new_tie
            chosen[:, level] = best
            taken[rows, best] = True
        # the choices as maps of indices from t_k to t_k+1, composed along the grid by doubling
        mapping = np.empty_like(chosen)
        mapping[rows[:, None], previous] = chosen
        span = 1
        while span < n_points - 1:
            mapping[span:] = np.take_along_axis(mapping[span:], mapping[:-span], axis=1)
            span *= 2
        composed = np.concatenate((first[None, :], mapping[:, first]))
        if np.array_equal(composed, order):
            break
        order = composed
    k = first_index(tie)
    if k is not None:
        raise LevelCrossingError(
            f"level matching ambiguous at t={times[k + 1]:.6g}: overlaps "
            f"{tie_values[k, 0]:.6f} vs {tie_values[k, 1]:.6f}"
        )
    return order


def scenario_eigen_trajectory(scenario: ScenarioSolution, grid: TimeGrid, **kwargs) -> EigenTrajectory:
    """Eigen-trajectory of a scenario's energy operator."""
    from tdnh.operators import scenario_energy_operator

    energy_op = shape_generic(lambda t: scenario_energy_operator(scenario, t))
    return eigen_trajectory(energy_op, scenario.rho, grid, **kwargs)


def dynamical_phase(traj: EigenTrajectory, *, imag_tol: float = 1e-8) -> np.ndarray:
    """Cumulative dynamical phases  -integral of E_n  (trapezoid), per level.

    The energies must be real within ``imag_tol``; a larger imaginary part
    means the expansion basis is wrong and raises.
    """
    worst = float(np.max(np.abs(traj.energies.imag)))
    if worst > imag_tol:
        raise NonRealEnergyError(f"instantaneous energies have |Im| up to {worst:.3e}")
    times = traj.grid.times()
    rates = -traj.energies.real
    return _cumtrapz(rates, times)


def _cumtrapz(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    dt = np.diff(times)[:, None]
    out[1:] = np.cumsum(0.5 * dt * (values[1:] + values[:-1]), axis=0)
    return out


def berry_rate(psi, metric, dyson, dyson_dot, dpsi) -> complex:
    """i <psi| rho (dpsi + eta^-1 eta_dot psi)> for one metric-normalized state.

    Returned complex: the real part is the geometric-phase rate, the
    imaginary part is a residual that must vanish for consistent frames.
    """
    psi = np.asarray(psi, dtype=complex)
    connection = np.asarray(dpsi, dtype=complex) + np.linalg.solve(
        np.asarray(dyson, dtype=complex), np.asarray(dyson_dot, dtype=complex) @ psi
    )
    return complex(1j * (psi.conj() @ np.asarray(metric, dtype=complex) @ connection))


def _time_derivatives(states: np.ndarray, dt: float, closure: np.ndarray | None) -> np.ndarray:
    """Central differences along axis 0; endpoints use second-order
    one-sided stencils, or periodic wrap-around when closure phases are
    given (closed loops)."""
    n = states.shape[0]
    d = np.empty_like(states)
    d[1:-1] = (states[2:] - states[:-2]) / (2.0 * dt)
    if closure is None:
        d[0] = (-3.0 * states[0] + 4.0 * states[1] - states[2]) / (2.0 * dt)
        d[-1] = (3.0 * states[-1] - 4.0 * states[-2] + states[-3]) / (2.0 * dt)
    else:
        # states[n-1] is one step before states[0] up to the loop holonomy
        before = states[n - 2] * np.conj(closure)[None, :] if states.ndim == 3 else states[n - 2] * np.conj(closure)
        after = states[1] * closure[None, :] if states.ndim == 3 else states[1] * closure
        d[0] = (states[1] - before) / (2.0 * dt)
        d[-1] = (after - states[n - 2]) / (2.0 * dt)
    return d


def _loop_closure_phases(traj: EigenTrajectory, metric0: np.ndarray) -> np.ndarray:
    """exp(i phi_n) with phi_n = arg <psi_n(0)| rho(0) |psi_n(T)>."""
    phases = np.empty(traj.dim, dtype=complex)
    for n in range(traj.dim):
        z = traj.right[0][:, n].conj() @ metric0 @ traj.right[-1][:, n]
        phases[n] = z / abs(z)
    return phases


def berry_rates(
    traj: EigenTrajectory,
    rho_fun: Callable[[float], np.ndarray],
    eta_fun: Callable[[float], np.ndarray],
    eta_dot_fun: Callable[[float], np.ndarray],
    *,
    periodic: bool = False,
) -> np.ndarray:
    """Geometric-phase rate per grid point and level, complex (n_points, dim).

    With ``periodic=True`` the endpoint stencils wrap around the loop,
    rotated by the per-level closure phases.
    """
    times = traj.grid.times()
    rho = np.asarray(on_times(rho_fun, times), dtype=complex)
    eta = np.asarray(on_times(eta_fun, times), dtype=complex)
    eta_dot = np.asarray(on_times(eta_dot_fun, times), dtype=complex)
    closure = _loop_closure_phases(traj, rho[0]) if periodic else None
    dstates = _time_derivatives(traj.right, traj.grid.dt, closure)
    connection = dstates + np.linalg.solve(eta, eta_dot) @ traj.right
    return 1j * np.sum((adjoint(traj.right) @ rho).swapaxes(1, 2) * connection, axis=1)


def hermitian_frame_rates(
    traj: EigenTrajectory,
    eta_fun: Callable[[float], np.ndarray],
    *,
    periodic: bool = False,
    rho_fun: Callable[[float], np.ndarray] | None = None,
) -> np.ndarray:
    """i <chi|d chi/dt> with chi = eta psi, same stencils as berry_rates.

    This is the mapped-Hermitian-frame route to the same rate; agreement
    with :func:`berry_rates` is a consistency check between the metric
    and the map.
    """
    times = traj.grid.times()
    chi = np.asarray(on_times(eta_fun, times), dtype=complex) @ traj.right
    closure = None
    if periodic:
        if rho_fun is None:
            raise ValueError("periodic hermitian-frame rates need rho_fun for closure phases")
        closure = _loop_closure_phases(traj, np.asarray(rho_fun(times[0])))
    dchi = _time_derivatives(chi, traj.grid.dt, closure)
    return 1j * np.sum(np.conj(chi) * dchi, axis=1)


def geometric_phase(rates: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Cumulative geometric phases from the real part of the rates."""
    return _cumtrapz(rates.real, grid.times())


def path_closure_residual(path: ParameterPath, grid: TimeGrid) -> float:
    """max coefficient mismatch between the two grid endpoints."""
    t0, t1 = grid.start, grid.stop
    return max(
        abs(coefficient_value(getattr(path, name), t0) - coefficient_value(getattr(path, name), t1))
        for name in path.coefficient_names()
    )


@dataclass(frozen=True)
class BerryLoopResult:
    phases: np.ndarray       # (dim,) real, defined modulo 2 pi
    max_imag_rate: float
    rates: np.ndarray        # (n_points, dim) complex


def berry_phase_loop(
    traj: EigenTrajectory,
    path: ParameterPath,
    rho_fun: Callable[[float], np.ndarray],
    eta_fun: Callable[[float], np.ndarray],
    eta_dot_fun: Callable[[float], np.ndarray],
    *,
    closure_tol: float = 1e-10,
    min_overlap: float = 0.9,
) -> BerryLoopResult:
    """Geometric phases for one closed traversal of the parameter path.

    Trapezoidal integral of the rate plus the endpoint holonomy
    arg <psi_n(0)|rho(0)|psi_n(T)>, which closes the transported gauge.
    The result is defined modulo 2 pi and invariant under smooth periodic
    rephasings of the trajectory.
    """
    resid = path_closure_residual(path, traj.grid)
    if resid > closure_tol:
        raise OpenPathError(
            f"parameter path endpoints differ by {resid:.3e} (> {closure_tol:.1e}); "
            "the loop phase needs a closed path"
        )
    k = first_index(np.min(traj.overlaps, axis=1) < min_overlap)
    if k is not None:
        raise GaugeAlignmentError(
            f"minimum consecutive overlap {traj.min_overlap:.3f} below {min_overlap}; "
            f"refine the grid (first below at t={traj.grid.times()[k + 1]:.6g})"
        )
    rates = berry_rates(traj, rho_fun, eta_fun, eta_dot_fun, periodic=True)
    totals = geometric_phase(rates, traj.grid)[-1]
    closure = _loop_closure_phases(traj, np.asarray(rho_fun(traj.grid.times()[0])))
    phases = totals + np.angle(closure)
    return BerryLoopResult(phases, float(np.max(np.abs(rates.imag))), rates)


def wrap_angle(angle: float) -> float:
    """Map an angle difference into (-pi, pi]."""
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def _unwrapped_angle_sweep(xs: np.ndarray, ys: np.ndarray) -> float:
    if np.min(np.hypot(xs, ys)) == 0.0:
        raise ValueError("path passes through the origin; the angle is undefined")
    theta = np.unwrap(np.arctan2(ys, xs))
    return float(theta[-1] - theta[0])


def closed_form_berry_hermitian_map(path: ParameterPath, grid: TimeGrid) -> float:
    """Half the continuous angle swept by (x_re, y_re) over the grid.

    Equals the rate quadrature for the hermitian-map scenario; always real.
    The angle is accumulated atan2-style along the samples, so winding
    paths are handled; the branch at the endpoints is the continuous one.
    """
    times = grid.times()
    return 0.5 * _unwrapped_angle_sweep(coefficient_value(path.x_re, times),
                                        coefficient_value(path.y_re, times))


def closed_form_berry_nonhermitian_map(scenario: ScenarioSolution, grid: TimeGrid) -> float:
    """Minus half the continuous angle swept by (x_re, 2A) over the grid."""
    if scenario.y_coupling is None:
        raise ValueError("scenario does not define the mapped sigma_y coupling")
    times = grid.times()
    ys = 2.0 * np.asarray(on_times(scenario.y_coupling, times), dtype=float)
    return -0.5 * _unwrapped_angle_sweep(coefficient_value(scenario.path.x_re, times), ys)


@dataclass(frozen=True)
class AdiabaticDecomposition:
    """Expansion coefficients of a state trajectory in the tracked basis.

    ``coefficients[k, n] = <phi_n(t_k)|psi(t_k)> exp(-i(geom + dyn))``;
    under adiabatic driving they stay at their initial values, and
    ``deviations`` records the worst excursion per level.
    """

    coefficients: np.ndarray  # (n_points, dim) complex
    deviations: np.ndarray    # (dim,) float

    @property
    def max_deviation(self) -> float:
        return float(np.max(self.deviations))


def adiabatic_decompose(
    states: np.ndarray,
    traj: EigenTrajectory,
    dynamical: np.ndarray,
    geometric: np.ndarray,
) -> AdiabaticDecomposition:
    raw = (adjoint(traj.left) @ np.asarray(states)[:, :, None])[:, :, 0]
    coeff = raw * np.exp(-1j * (geometric + dynamical))
    deviations = np.max(np.abs(coeff - coeff[0]), axis=0)
    return AdiabaticDecomposition(coeff, deviations)
