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

The operator constructors and residuals also take (N, n, n) stacks over a
time grid; a residual of a stack is an (N,) array of per-point maxima.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from tdnh import tolerances
from tdnh.linalg import (
    Eigensystem,
    adjoint,
    eig_biorthogonal,
    entry_max,
    hermiticity_residual,
    max_abs,
    metric_normalized,
    on_times,
    operator_time_derivative,
    rk4_transfer,
)
from tdnh.model import ConstraintError, ScenarioSolution, static_parity

__all__ = [
    "FrameConsistencyError",
    "CheckResult",
    "VerificationReport",
    "MetricFlow",
    "OperatorFrame",
    "energy_operator",
    "metric_ode_solve",
    "unit_determinant",
    "c_op_from_parity_metric",
    "c_op_from_eigensystem",
    "intertwiner_from_metric",
    "vector_map_residuals",
    "quasi_hermiticity_residual",
    "metric_ode_residual",
    "scenario_energy_operator",
    "build_frame",
    "verify_reality_conditions",
]


class FrameConsistencyError(ValueError):
    """Operator inputs do not belong to a consistent frame."""


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    skipped: bool = False
    note: str = ""

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
            note: str = "") -> CheckResult:
        passed = bool(residual <= tolerance) and not skipped
        result = CheckResult(name, float(residual), float(tolerance), passed, skipped, note)
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


def c_op_from_parity_metric(parity, metric_unit_det, *, tol: float = 1e-9) -> np.ndarray:
    """Involution P_parity @ rho_hat from the static parity and a
    unit-determinant metric.

    The determinant normalization is what makes the product square to the
    identity for the anti-diagonal parity family; both that normalization
    and the involution property are enforced.
    """
    p = np.asarray(parity, dtype=complex)
    rho_hat = np.asarray(metric_unit_det, dtype=complex)
    dim = p.shape[0]
    if max_abs(p @ p - np.eye(dim)) > tol:
        raise FrameConsistencyError("parity input must square to the identity")
    det = np.linalg.det(rho_hat).real
    if abs(det - 1.0) > 1e-8:
        raise FrameConsistencyError(f"metric determinant must be 1, got {det:.12g}")
    c = p @ rho_hat
    resid = max_abs(c @ c - np.eye(dim))
    if resid > tol:
        raise FrameConsistencyError(f"involution residual {resid:.3e} exceeds {tol:.1e}")
    return c


def c_op_from_eigensystem(eigen: Eigensystem, signatures: Sequence[int]) -> np.ndarray:
    """sum_n s_n |psi_n><phi_n| over a biorthogonal eigensystem, s_n = +-1."""
    s = np.asarray(signatures, dtype=float)
    if s.shape != (eigen.dim,):
        raise ValueError(f"need {eigen.dim} signatures, got {s.shape}")
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("signatures must be +1 or -1")
    return (eigen.right * s) @ adjoint(eigen.left)


def intertwiner_from_metric(metric, c_op, *, tol: float = 1e-9) -> np.ndarray:
    """P = rho C; Hermitian when the inputs belong to the same frame.

    The product is returned unsymmetrized so downstream Hermiticity
    residuals stay meaningful; a residual above tolerance means the
    metric and involution are inconsistent and raises.
    """
    p = np.asarray(metric, dtype=complex) @ np.asarray(c_op, dtype=complex)
    resid = hermiticity_residual(p)
    if resid > tol:
        raise FrameConsistencyError(
            f"intertwiner Hermiticity residual {resid:.3e} exceeds {tol:.1e}; "
            "metric and involution are inconsistent"
        )
    return p


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
    """The operator stack of a scenario at one instant."""

    t: float
    hamiltonian: np.ndarray
    energy_op: np.ndarray
    dyson: np.ndarray
    metric: np.ndarray
    eigen: Eigensystem           # of energy_op, metric-normalized, by descending Re
    signatures: tuple[int, ...]
    c_op: np.ndarray             # involution from the energy-operator eigensystem
    intertwiner: np.ndarray      # metric @ c_op
    c_op_hamiltonian: np.ndarray | None = None  # parity @ unit-det metric, when defined


def build_frame(
    scenario: ScenarioSolution,
    t: float,
    *,
    signatures: Sequence[int] = (1, -1),
    include_hamiltonian_c: bool = True,
    cond_limit: float = 1e8,
) -> OperatorFrame:
    """Assemble the full operator stack of a scenario at time t.

    The energy-operator eigensystem is ordered by descending real part and
    metric-normalized, so its left vectors equal metric @ right up to
    round-off and the default (+1, -1) signatures give the conventional
    involution sign.
    """
    h = scenario.hamiltonian(t)
    eta = scenario.eta(t)
    rho = scenario.rho(t)
    h_energy = energy_operator(h, eta, scenario.eta_dot(t))
    eigen = metric_normalized(
        eig_biorthogonal(h_energy, cond_limit=cond_limit, ordering="real_desc"), rho
    )
    c_op = c_op_from_eigensystem(eigen, signatures)
    intertwiner = intertwiner_from_metric(rho, c_op)
    c_ham = None
    if include_hamiltonian_c:
        try:
            parity = static_parity(scenario.path, t)
        except ConstraintError:
            parity = None  # path off the static-symmetry surface, no parity product
        if parity is not None:
            c_ham = c_op_from_parity_metric(parity, unit_determinant(rho))
    return OperatorFrame(
        t=t,
        hamiltonian=h,
        energy_op=h_energy,
        dyson=eta,
        metric=rho,
        eigen=eigen,
        signatures=tuple(int(s) for s in signatures),
        c_op=c_op,
        intertwiner=intertwiner,
        c_op_hamiltonian=c_ham,
    )


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
    tol = tolerances.resolve(tols)
    p = frame.intertwiner
    if use_hamiltonian:
        operator = frame.hamiltonian
        eigen = metric_normalized(
            eig_biorthogonal(operator, cond_limit=cond_limit, ordering="real_desc"),
            frame.metric,
        )
    else:
        operator = frame.energy_op
        eigen = frame.eigen

    report = VerificationReport()
    report.add("reality_intertwining", max_abs(p @ operator - operator.conj().T @ p),
               tol["reality_intertwining"])

    worst_resid, worst_imag = vector_map_residuals(p, eigen)
    report.add("reality_vector_map", worst_resid, tol["reality_vector_map"])
    report.add("reality_alpha_imag", worst_imag, tol["reality_alpha_imag"])
    report.add("intertwiner_hermitian", hermiticity_residual(p), tol["intertwiner_hermitian"])
    report.add("energy_reality", float(np.max(np.abs(eigen.values.imag))), tol["energy_reality"])

    conditions = ("reality_intertwining", "reality_vector_map", "reality_alpha_imag",
                  "intertwiner_hermitian")
    report.reality_guarantee_active = all(report.check(name).passed for name in conditions)
    return report
