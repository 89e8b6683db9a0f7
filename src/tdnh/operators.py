"""Energy operator, metric flow, involution/intertwiner pair, and the
algebraic checks that guarantee real instantaneous energies.

The central objects at a fixed time t are collected in an
:class:`OperatorFrame`:

* the Hamiltonian H and the energy operator  H~ = H + i eta^-1 eta_dot,
  which is the observable (H itself is not);
* the positive metric rho = eta^dag eta solving  i rho_dot = H^dag rho - rho H;
* the involution  C = sum_n s_n |psi_n><phi_n|  built from the
  biorthogonal eigensystem of the energy operator with signatures
  s_n = +-1;
* the Hermitian, non-positive intertwiner  P = rho C.

When P intertwines the energy operator with its adjoint, maps right
eigenvectors onto left ones with real coefficients, and is Hermitian,
the instantaneous eigenvalues of the energy operator are real.  Those
three conditions are implemented as runtime residual checks
(:func:`verify_reality_conditions`), not re-derived symbolically.

Every check of the package is one entry of the table :data:`CHECKS`: a
name and a function from a frame (:class:`OperatorFrame`, or
:class:`StaticFrame` for the static model) to a residual.  The library
and the command line evaluate that table.

The operator constructors, frames and residuals also take (N, n, n)
stacks over a time grid; a residual of a stack is an (N,) array of
per-point maxima.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from tdnh import tolerances
from tdnh.evolution import (
    CLOSURE_TOL,
    EigenTrajectory,
    berry_phase_loop,
    berry_rates,
    closed_form_berry_hermitian_map,
    closed_form_berry_nonhermitian_map,
    hermitian_frame_rates,
    path_closure_residual,
    wrap_angle,
)
from tdnh.linalg import (
    Eigensystem,
    adjoint,
    commutator,
    eig_biorthogonal,
    entry_max,
    hermiticity_residual,
    metric_normalized,
    on_times,
    operator_time_derivative,
    positivity_check,
    rk4_transfer,
    shape_generic,
)
from tdnh.model import (
    ConstraintError,
    ParameterPath,
    ScenarioSolution,
    dyson_residual,
    hamiltonian,
    static_constraint_residual,
    static_energies,
    static_parity,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "MetricFlow",
    "OperatorFrame",
    "StaticFrame",
    "CHECKS",
    "energy_operator",
    "metric_ode_solve",
    "unit_determinant",
    "c_op_from_eigensystem",
    "vector_map_residuals",
    "quasi_hermiticity_residual",
    "metric_ode_residual",
    "scenario_energy_operator",
    "build_frame",
    "build_static_frame",
    "evaluate_checks",
    "verify_reality_conditions",
]


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    skipped: bool = False
    note: str = ""
    # each point's residual when the checked frame is stacked over a time vector
    values: np.ndarray | float | None = field(default=None, compare=False, repr=False)

    @property
    def verdict(self) -> str:
        if self.skipped:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"


@dataclass
class VerificationReport:
    """Named residuals with tolerances and verdicts; passes iff every
    non-skipped check passes."""

    checks: list[CheckResult] = field(default_factory=list)
    reality_guarantee_active: bool | None = None

    def add(self, name: str, residual: float, tolerance: float, *, skipped: bool = False,
            note: str = "", values=None) -> CheckResult:
        passed = bool(residual <= tolerance) and not skipped
        result = CheckResult(name, float(residual), float(tolerance), passed, skipped, note,
                             values)
        self.checks.append(result)
        return result

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)


def energy_operator(h_matrix, dyson, dyson_dot) -> np.ndarray:
    """H + i eta^-1 eta_dot (hbar = 1)."""
    dyson = np.asarray(dyson, dtype=complex)
    try:
        inv = np.linalg.inv(dyson)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Dyson map is singular") from exc
    return np.asarray(h_matrix, dtype=complex) + 1j * inv @ np.asarray(dyson_dot, dtype=complex)


def scenario_energy_operator(scenario: ScenarioSolution, t) -> np.ndarray:
    """Energy operator of a scenario at time t, with the analytic map derivative."""
    return energy_operator(scenario.hamiltonian(t), scenario.eta(t), scenario.eta_dot(t))


@dataclass(frozen=True)
class MetricFlow:
    """Metric trajectory from the defining ODE, with per-step positivity flags."""

    times: np.ndarray
    values: np.ndarray       # (n_points, dim, dim)
    positive: np.ndarray     # (n_points,) bool

    @property
    def all_positive(self) -> bool:
        return bool(np.all(self.positive))

    def __call__(self, k: int) -> np.ndarray:
        return self.values[k]


def metric_ode_solve(h_fun: Callable[[float], np.ndarray], rho0, grid) -> MetricFlow:
    """Integrate i rho_dot = H^dag rho - rho H with fixed-step RK4.

    rho0 must be Hermitian positive definite.  H is evaluated once over
    the grid's half-step times; the RK4 step matrices act on the row-major
    vec(rho), whose generator is (-i H^dag) x I + I x (i H)^T, so they
    form an (N, dim^2, dim^2) stack.  The iterate is re-symmetrized each
    step; loss of positivity is recorded in the returned flags, never
    silently ignored.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if hermiticity_residual(rho0) > 1e-9:
        raise ValueError("initial metric must be Hermitian")
    if not np.all(np.linalg.eigvalsh(rho0) > 0.0):
        raise ValueError("initial metric must be positive definite")

    times = grid.times()
    dim = rho0.shape[0]
    h = np.asarray(on_times(h_fun, grid.half_step_times()), dtype=complex)
    eye = np.eye(dim)[None]
    generator = np.kron(-1j * adjoint(h), eye) + np.kron(eye, 1j * h.swapaxes(-1, -2))
    transfer = rk4_transfer(generator, grid.dt)
    values = np.empty((times.shape[0], dim, dim), dtype=complex)
    values[0] = rho = rho0
    for k, step in enumerate(transfer, 1):
        rho = (step @ rho.reshape(-1)).reshape(dim, dim)
        values[k] = rho = 0.5 * (rho + rho.conj().T)
    positive = np.all(np.linalg.eigvalsh(values) > 0.0, axis=-1)
    return MetricFlow(times, values, positive)


def unit_determinant(metric) -> np.ndarray:
    """Rescale a positive-definite metric (or each of a stack) to determinant one."""
    rho = np.asarray(metric, dtype=complex)
    det = np.linalg.det(rho).real
    if np.any(det <= 0.0):
        raise ValueError("metric determinant must be positive")
    return rho / (det ** (1.0 / rho.shape[-1]))[..., None, None]


def c_op_from_eigensystem(eigen: Eigensystem, signatures: Sequence[int]) -> np.ndarray:
    """sum_n s_n |psi_n><phi_n| over a biorthogonal eigensystem, s_n = +-1."""
    s = np.asarray(signatures, dtype=float)
    if s.shape != (eigen.dim,):
        raise ValueError(f"need {eigen.dim} signatures, got {s.shape}")
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("signatures must be +1 or -1")
    return (eigen.right * s) @ adjoint(eigen.left)


def vector_map_residuals(intertwiner, eigen: Eigensystem):
    """Worst relative residual of P|psi_n> = alpha_n |phi_n> and worst |Im alpha_n|.

    alpha_n is the complex least-squares coefficient; its reality is a
    measured outcome, not an assumption.  For stacks, both are per point.
    """
    mapped = np.asarray(intertwiner, dtype=complex) @ eigen.right   # column n is P|psi_n>
    phi = eigen.left
    alpha = np.sum(np.conj(phi) * mapped, axis=-2) / np.sum(np.conj(phi) * phi, axis=-2)
    scale = np.maximum(np.linalg.norm(mapped, axis=-2), 1e-300)
    resid = np.linalg.norm(mapped - alpha[..., None, :] * phi, axis=-2) / scale
    return np.max(resid, axis=-1), np.max(np.abs(alpha.imag), axis=-1)


def quasi_hermiticity_residual(operator, metric):
    """max |A^dag rho - rho A|; zero iff the metric intertwines A with its adjoint."""
    a = np.asarray(operator, dtype=complex)
    rho = np.asarray(metric, dtype=complex)
    return entry_max(adjoint(a) @ rho - rho @ a)


def metric_ode_residual(h_fun, rho_fun, t, *, step: float | None = None):
    """max |i rho_dot - H^dag rho + rho H| with finite-difference rho_dot."""
    rho_dot = operator_time_derivative(rho_fun, t, step)
    h = np.asarray(on_times(h_fun, t), dtype=complex)
    rho = np.asarray(on_times(rho_fun, t), dtype=complex)
    return entry_max(1j * rho_dot - adjoint(h) @ rho + rho @ h)


@dataclass(frozen=True)
class OperatorFrame:
    """The operator stack of a scenario at one instant, or stacked over a
    time vector (every array then gains a leading (N,) axis).  A grid frame
    built from an eigen-trajectory also serves its phase quantities."""

    t: float | np.ndarray
    hamiltonian: np.ndarray
    energy_op: np.ndarray
    dyson: np.ndarray
    metric: np.ndarray
    eigen: Eigensystem           # of energy_op, metric-normalized
    signatures: tuple[int, ...]
    c_op: np.ndarray             # involution from the energy-operator eigensystem
    intertwiner: np.ndarray      # metric @ c_op
    c_op_hamiltonian: np.ndarray | None = None  # parity @ unit-det metric, when defined
    parity: np.ndarray | None = None            # static parity, when defined
    scenario: ScenarioSolution | None = None    # source of the time-derivative checks
    trajectory: EigenTrajectory | None = None   # source of eigen and the phase checks

    @cached_property
    def vector_map(self):
        """:func:`vector_map_residuals` of the frame, kept for the two checks that read it."""
        return vector_map_residuals(self.intertwiner, self.eigen)

    @cached_property
    def loop(self):
        """:func:`berry_phase_loop` of the trajectory on a closed path, None on an
        open one.  Frames without a trajectory have neither ``loop`` nor ``rates``."""
        sc, traj = self.scenario, self.trajectory
        if traj is None:
            raise _NotApplicable("frame has no eigen-trajectory")
        if path_closure_residual(sc.path, traj.grid) > CLOSURE_TOL:
            return None
        return berry_phase_loop(traj, sc.path, sc.rho, sc.eta, sc.eta_dot)

    @cached_property
    def rates(self) -> tuple[np.ndarray, np.ndarray]:
        """The trajectory's (N, 2) geometric-phase rates by the metric route and
        by the mapped Hermitian frame; periodic on a closed path, where the
        metric route is the loop's."""
        sc, traj, loop = self.scenario, self.trajectory, self.loop
        metric = berry_rates(traj, sc.rho, sc.eta, sc.eta_dot) if loop is None else loop.rates
        return metric, hermitian_frame_rates(traj, sc.eta, periodic=loop is not None,
                                             rho_fun=sc.rho)


def build_frame(
    scenario: ScenarioSolution,
    t,
    *,
    signatures: Sequence[int] = (1, -1),
    cond_limit: float = 1e8,
    trajectory: EigenTrajectory | None = None,
) -> OperatorFrame:
    """Assemble the full operator stack of a scenario at time t, or over a
    vector of times.

    Without ``trajectory``, the energy-operator eigensystem is solved at
    each time, ordered by descending real part and metric-normalized, so
    its left vectors equal metric @ right up to round-off and the default
    (+1, -1) signatures give the conventional involution sign.  Given the
    scenario's eigen-trajectory over t, the frame takes its tracked
    eigensystem and keeps it for the ``berry_*`` phase checks.  Inconsistent
    inputs are not rejected here: they show as failing checks of :data:`CHECKS`.
    """
    h = scenario.hamiltonian(t)
    eta = scenario.eta(t)
    rho = scenario.rho(t)
    h_energy = energy_operator(h, eta, scenario.eta_dot(t))
    if trajectory is not None:
        eigen = Eigensystem(trajectory.energies, trajectory.right, trajectory.left, "trajectory")
    else:
        eigen = metric_normalized(
            eig_biorthogonal(h_energy, cond_limit=cond_limit, ordering="real_desc"), rho
        )
    c_op = c_op_from_eigensystem(eigen, signatures)
    try:
        parity = static_parity(scenario.path, t)
    except ConstraintError:
        parity = None  # path off the static-symmetry surface, no parity product
    return OperatorFrame(
        t=t,
        hamiltonian=h,
        energy_op=h_energy,
        dyson=eta,
        metric=rho,
        eigen=eigen,
        signatures=tuple(int(s) for s in signatures),
        c_op=c_op,
        intertwiner=rho @ c_op,
        c_op_hamiltonian=None if parity is None else _parity_product(parity, rho),
        parity=parity,
        scenario=scenario,
        trajectory=trajectory,
    )


def _parity_product(parity, metric) -> np.ndarray:
    return parity @ unit_determinant(metric)


@dataclass(frozen=True)
class StaticFrame:
    """The static model at one instant, or stacked over a time vector."""

    t: float | np.ndarray
    path: ParameterPath
    hamiltonian: np.ndarray
    parity: np.ndarray
    energies: tuple[np.ndarray, np.ndarray]   # closed-form (E+, E-)


def build_static_frame(path: ParameterPath, t) -> StaticFrame:
    """Hamiltonian, parity and closed-form energies of a static path;
    raises :class:`~tdnh.model.ConstraintError` off the symmetry surface."""
    return StaticFrame(t, path, hamiltonian(path, t), static_parity(path, t),
                       static_energies(path, t))


# --------------------------------------------------------------------------
# The check table
# --------------------------------------------------------------------------


class _NotApplicable(Exception):
    """A check does not apply to the frame; the message says why."""


_OFF_SURFACE = "path off the static-symmetry surface"


def _involution_residual(a):
    """max |a^2 - I|; zero iff a is an involution."""
    return entry_max(a @ a - np.eye(a.shape[-1]))


def _c_hamiltonian_involution(f: OperatorFrame):
    if f.c_op_hamiltonian is None:
        raise _NotApplicable(_OFF_SURFACE)
    return _involution_residual(f.c_op_hamiltonian)


def _c_hamiltonian_evolution(f: OperatorFrame):
    """i dC/dt - [H, C] for the parity product C, which obeys it while the
    parity is constant along the frame's times."""
    if f.parity is None:
        raise _NotApplicable(_OFF_SURFACE)
    if np.ndim(f.t) == 0:
        raise _NotApplicable("parity constancy needs a time grid")
    if not np.all(entry_max(f.parity - f.parity.reshape(-1, 2, 2)[0]) <= 1e-12):
        raise _NotApplicable("parity varies along the path")
    sc = f.scenario
    c_dot = operator_time_derivative(
        shape_generic(lambda t: _parity_product(static_parity(sc.path, t), sc.rho(t))), f.t)
    return entry_max(1j * c_dot - commutator(f.hamiltonian, f.c_op_hamiltonian))


def _berry_closed_form(f: OperatorFrame):
    """Worst loop phase against the kind's closed form, modulo 2 pi."""
    if f.loop is None:
        raise _NotApplicable("parameter path is not closed")
    sc, grid = f.scenario, f.trajectory.grid
    try:
        closed_form = (closed_form_berry_hermitian_map(sc.path, grid) if sc.kind == "hermitian"
                       else closed_form_berry_nonhermitian_map(sc, grid))
    except ValueError:
        raise _NotApplicable("closed form undefined (angle through origin)") from None
    return np.full(np.shape(f.t), max(abs(wrap_angle(p - closed_form)) for p in f.loop.phases))


def _static_energy_closed_form(f: StaticFrame):
    eigs = np.linalg.eigvals(f.hamiltonian)

    def distance(e):
        return np.minimum(np.abs(e - eigs[..., 0]), np.abs(e - eigs[..., 1]))

    return np.maximum(*(distance(e) for e in f.energies))


# name -> (frame type, residual of a frame), in report order.  A residual is a
# float for a single-time frame and an (N,) array for a stacked one; the
# tolerances are tdnh.tolerances.DEFAULTS under the same names.
CHECKS: dict[str, tuple[type, Callable]] = {
    "dyson_residual": (OperatorFrame, lambda f: dyson_residual(f.scenario, f.t)),
    "h_hermitian": (OperatorFrame,
                    lambda f: hermiticity_residual(f.scenario.hermitian_hamiltonian(f.t))),
    "metric_positive": (OperatorFrame, lambda f: np.maximum(
        0.0, -np.min(positivity_check(f.metric)[1], axis=-1))),
    "quasi_hermiticity": (OperatorFrame,
                          lambda f: quasi_hermiticity_residual(f.energy_op, f.metric)),
    "metric_ode_residual": (OperatorFrame, lambda f: metric_ode_residual(
        f.scenario.hamiltonian, f.scenario.rho, f.t)),
    "metric_orthonormality": (OperatorFrame, lambda f: entry_max(
        adjoint(f.eigen.right) @ f.metric @ f.eigen.right - np.eye(f.eigen.dim))),
    "c_op_involution": (OperatorFrame, lambda f: _involution_residual(f.c_op)),
    "c_op_commutes_energy": (OperatorFrame,
                             lambda f: entry_max(commutator(f.c_op, f.energy_op))),
    "intertwiner_hermitian": (OperatorFrame, lambda f: hermiticity_residual(f.intertwiner)),
    "intertwiner_factorization": (OperatorFrame, lambda f: entry_max(
        np.linalg.solve(f.metric, f.intertwiner) - f.c_op)),
    "intertwiner_not_positive": (OperatorFrame, lambda f: np.maximum(
        0.0, np.min(positivity_check(f.intertwiner)[1], axis=-1))),
    "reality_intertwining": (OperatorFrame,
                             lambda f: quasi_hermiticity_residual(f.energy_op, f.intertwiner)),
    "reality_vector_map": (OperatorFrame, lambda f: f.vector_map[0]),
    "reality_alpha_imag": (OperatorFrame, lambda f: f.vector_map[1]),
    "energy_reality": (OperatorFrame, lambda f: np.max(np.abs(f.eigen.values.imag), axis=-1)),
    "c_hamiltonian_involution": (OperatorFrame, _c_hamiltonian_involution),
    "c_hamiltonian_evolution": (OperatorFrame, _c_hamiltonian_evolution),
    "berry_imag_rate": (OperatorFrame, lambda f: np.max(np.abs(f.rates[0].imag), axis=-1)),
    "berry_hermitian_match": (OperatorFrame,
                              lambda f: np.max(np.abs(f.rates[0] - f.rates[1]), axis=-1)),
    "berry_closed_form": (OperatorFrame, _berry_closed_form),
    "static_constraint": (StaticFrame, lambda f: static_constraint_residual(f.path, f.t)),
    "parity_involution": (StaticFrame, lambda f: _involution_residual(f.parity)),
    "parity_pseudo_hermiticity": (StaticFrame,
                                  lambda f: quasi_hermiticity_residual(f.hamiltonian, f.parity)),
    "static_energy_closed_form": (StaticFrame, _static_energy_closed_form),
}

# conditions (i), (ii) (the map and the reality of its coefficients) and
# (iii) of verify_reality_conditions
_REALITY_CONDITIONS = ("reality_intertwining", "reality_vector_map", "reality_alpha_imag",
                       "intertwiner_hermitian")


def evaluate_checks(frame, names: Sequence[str],
                    tols: dict[str, float] | None = None) -> VerificationReport:
    """Report the named :data:`CHECKS` on a frame, in the order given.

    A check's residual is its worst point; ``values`` keeps each point's
    residual of a stacked frame.  A check that does not apply to the frame
    is skipped with a note and zero residuals.  The reality guarantee is
    marked when the names include all of conditions (i)-(iii) of
    :func:`verify_reality_conditions`.
    """
    tol = tolerances.resolve(tols)
    report = VerificationReport()
    for name in names:
        try:
            values = CHECKS[name][1](frame)
        except _NotApplicable as exc:
            report.add(name, 0.0, tol[name], skipped=True, note=str(exc),
                       values=np.zeros(np.shape(frame.t)))
        else:
            report.add(name, np.max(values), tol[name], values=values)
    if all(name in names for name in _REALITY_CONDITIONS):
        report.reality_guarantee_active = all(
            report.check(name).passed for name in _REALITY_CONDITIONS)
    return report


def verify_reality_conditions(
    frame: OperatorFrame,
    *,
    use_hamiltonian: bool = False,
    tols: dict[str, float] | None = None,
    cond_limit: float = 1e8,
) -> VerificationReport:
    """Check the three conditions that force real instantaneous energies.

    (i)   the intertwiner maps the operator to its adjoint,
    (ii)  it maps each right eigenvector onto the paired left one with a
          real coefficient (complex least-squares fit, then |Im alpha|),
    (iii) it is Hermitian.

    With ``use_hamiltonian=True`` the checks run against the Hamiltonian
    and its eigensystem instead of the energy operator; condition (ii)
    then fails off the Hermitian limit, which is the designed negative
    control.  The report also carries the consequence, max |Im E_n|, and
    marks the reality guarantee active only when (i)-(iii) all pass.
    """
    if use_hamiltonian:
        eigen = metric_normalized(
            eig_biorthogonal(frame.hamiltonian, cond_limit=cond_limit, ordering="real_desc"),
            frame.metric,
        )
        frame = replace(frame, energy_op=frame.hamiltonian, eigen=eigen)
    return evaluate_checks(frame, _REALITY_CONDITIONS + ("energy_reality",), tols)
