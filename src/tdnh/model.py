"""Driven two-level model with complex Pauli coefficients.

The Hamiltonian is

    H(t) = -1/2 [ omega*I + x(t)*sigma_x + y(t)*sigma_y + z(t)*sigma_z ]

with x = x_re + i*x_im and likewise for y, z; omega is a real constant
and all coefficients carry energy units with hbar = 1.  The module
classifies the static symmetry regimes of this family, builds the static
parity intertwiner, and constructs the two closed-form time-dependent
Dyson-map scenarios:

* ``hermitian`` map: a diagonal, Hermitian eta(t) driven by the
  integrated sigma_z drive, with metric rho = eta^2;
* ``nonhermitian`` map: a non-Hermitian eta(t) built from the ratio
  y_im/x_re, with a shifted-constraint coefficient set.

Scenario construction derives the dependent coefficients, then certifies
the result by substituting into the time-dependent Dyson equation
h = eta H eta^-1 + i eta_dot eta^-1 with a finite-difference eta_dot;
residuals above tolerance are hard errors, since every downstream
reality statement is meaningless off the constraint surface.

Every function of time here is shape-generic: a float t gives a float or
a 2x2 matrix, a vector of N times gives an (N,) array or an (N, 2, 2)
stack, computed as array operations over the whole vector.  Opaque
user-supplied callables are the exception; they are sampled point by
point.  Errors raised over a vector name the first offending time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from tdnh import expr
from tdnh.linalg import (
    entry_max,
    first_index,
    is_time_vector,
    mat2,
    on_times,
    operator_time_derivative,
    shape_generic,
)

__all__ = [
    "Coefficient",
    "ConstraintError",
    "ScenarioValidationError",
    "ParameterPath",
    "PathValues",
    "ScenarioConstants",
    "ScenarioSolution",
    "as_coefficient",
    "coefficient_value",
    "coefficient_dual",
    "hamiltonian",
    "static_constraint_residual",
    "static_discriminant",
    "discriminant_value",
    "classify_discriminant",
    "discriminant",
    "static_energies",
    "static_parity",
    "build_hermitian_map_scenario",
    "build_nonhermitian_map_scenario",
    "dyson_residual",
    "adaptive_simpson",
    "REGIMES",
]

REGIMES = ("symmetric", "exceptional", "broken")

Coefficient = Union[expr.ExprAst, float, int, Callable[[float], float]]


class ConstraintError(ValueError):
    """A coefficient set violates the constraints the operation requires."""


class ScenarioValidationError(ConstraintError):
    """Scenario failed its substitution check against the Dyson equation."""


def as_coefficient(c: Coefficient | str) -> Coefficient:
    """Normalize user input: expression text is parsed, numbers kept as floats."""
    if isinstance(c, str):
        return expr.parse(c)
    if isinstance(c, (int, float)):
        return float(c)
    return c


def coefficient_value(c: Coefficient, t):
    """Value at t, or an array of values over a vector t."""
    if isinstance(c, (int, float)):
        return np.full(np.shape(t), float(c)) if is_time_vector(t) else float(c)
    if callable(c):
        if is_time_vector(t):
            return np.asarray(on_times(c, t), dtype=float)
        return float(c(t))
    return expr.evaluate(c, t)


def coefficient_dual(c: Coefficient, t):
    """(value, d/dt).  Exact for expressions and constants, central
    difference for opaque callables."""
    if isinstance(c, (int, float)):
        value = coefficient_value(c, t)
        return value, value * 0.0
    if callable(c):
        h = 1e-6 * np.maximum(1.0, np.abs(t))
        value = coefficient_value(c, t)
        return value, (coefficient_value(c, t + h) - coefficient_value(c, t - h)) / (2.0 * h)
    d = expr.evaluate_dual(c, t)
    return d.value, d.derivative


def require_nonzero(value, t, message: str) -> None:
    """ConstraintError ``message`` (formatted with ``t``) at the first time value is 0.

    A helper of the tdnh modules, kept out of ``__all__``.
    """
    k = first_index(np.equal(value, 0.0))
    if k is not None:
        raise ConstraintError(message.format(t=np.ravel(t)[k]))


@dataclass(frozen=True)
class PathValues:
    """Coefficient values at one instant, or arrays of them over a time vector."""

    x_re: float
    x_im: float
    y_re: float
    y_im: float
    z_re: float
    z_im: float

    @property
    def x(self) -> complex:
        return self.x_re + 1j * self.x_im

    @property
    def y(self) -> complex:
        return self.y_re + 1j * self.y_im

    @property
    def z(self) -> complex:
        return self.z_re + 1j * self.z_im


_COEFF_NAMES = ("x_re", "x_im", "y_re", "y_im", "z_re", "z_im")


@dataclass(frozen=True)
class ParameterPath:
    """Time-dependent coefficient set of the two-level Hamiltonian.

    Each coefficient is expression text, a parsed expression, a constant,
    or a callable: the scenario-derived components are
    :func:`~tdnh.linalg.shape_generic` callables, any other callable is
    sampled point by point over a vector of times.
    """

    omega: float = 0.0
    x_re: Coefficient | str = 0.0
    x_im: Coefficient | str = 0.0
    y_re: Coefficient | str = 0.0
    y_im: Coefficient | str = 0.0
    z_re: Coefficient | str = 0.0
    z_im: Coefficient | str = 0.0

    def __post_init__(self):
        for name in _COEFF_NAMES:
            object.__setattr__(self, name, as_coefficient(getattr(self, name)))

    def coefficients(self, t) -> PathValues:
        return PathValues(*(coefficient_value(getattr(self, name), t) for name in _COEFF_NAMES))

    def coefficient_names(self) -> tuple[str, ...]:
        return _COEFF_NAMES


def hamiltonian(path: ParameterPath, t) -> np.ndarray:
    """H(t) = -1/2 [omega*I + x*sigma_x + y*sigma_y + z*sigma_z]."""
    c = path.coefficients(t)
    w, x, y, z = path.omega, c.x, c.y, c.z
    return -0.5 * mat2(w + z, x - 1j * y, x + 1j * y, w - z)


def static_constraint_residual(path: ParameterPath, t):
    """How far the coefficients sit from the static-symmetry surface
    x_re*x_im = -y_re*y_im, z_re = 0."""
    c = path.coefficients(t)
    return np.maximum(np.abs(c.x_re * c.x_im + c.y_re * c.y_im), np.abs(c.z_re))


def _check_static_surface(path: ParameterPath, t, constraint_tol: float) -> PathValues:
    resid = static_constraint_residual(path, t)
    k = first_index(resid > constraint_tol)
    if k is not None:
        raise ConstraintError(
            f"static constraints violated at t={np.ravel(t)[k]}: "
            f"residual {np.ravel(resid)[k]:.3e} > {constraint_tol:.1e}"
        )
    return path.coefficients(t)


def static_discriminant(x_re, y_re, y_im, z_im):
    """(x_re^2 + y_re^2)(x_re^2 - y_im^2) - x_re^2 z_im^2, elementwise."""
    xx = x_re * x_re
    return (xx + y_re * y_re) * (xx - y_im * y_im) - xx * z_im * z_im


def discriminant_value(path: ParameterPath, t):
    """The static spectral discriminant, evaluated without precondition checks."""
    c = path.coefficients(t)
    return static_discriminant(c.x_re, c.y_re, c.y_im, c.z_im)


def classify_discriminant(value, *, exceptional_band: float = 1e-12):
    """Regime name of a discriminant value (an array of names for an array)."""
    names = np.where(np.abs(value) <= exceptional_band, "exceptional",
                     np.where(value > 0.0, "symmetric", "broken"))
    return str(names) if names.ndim == 0 else names


def discriminant(
    path: ParameterPath,
    t,
    *,
    exceptional_band: float = 1e-12,
    constraint_tol: float = 1e-10,
):
    """Classify the static regime at time t by the sign of the discriminant.

    Requires the static-symmetry constraints to hold and x_re(t) != 0
    (the closed-form energies divide by it).
    """
    c = _check_static_surface(path, t, constraint_tol)
    require_nonzero(c.x_re, t, "x_re vanishes at t={t}; static energies are undefined")
    value = static_discriminant(c.x_re, c.y_re, c.y_im, c.z_im)
    return value, classify_discriminant(value, exceptional_band=exceptional_band)


def static_energies(path: ParameterPath, t, **kwargs):
    """Closed-form static eigenvalues (-omega +- sqrt(disc)/x_re)/2.

    Real and distinct in the symmetric regime, a complex-conjugate pair in
    the broken regime.
    """
    value, _ = discriminant(path, t, **kwargs)
    c = path.coefficients(t)
    root = np.sqrt(np.asarray(value, dtype=complex)) / c.x_re
    return 0.5 * (-path.omega + root), 0.5 * (-path.omega - root)


def static_parity(path: ParameterPath, t, *, constraint_tol: float = 1e-10) -> np.ndarray:
    """Anti-diagonal parity solving P H = H^dag P with P^2 = I on the
    constraint surface."""
    c = _check_static_surface(path, t, constraint_tol)
    scale = np.hypot(c.x_re, c.y_re)
    require_nonzero(scale, t, "x_re and y_re both vanish at t={t}; parity is undefined")
    off = (c.x_re - 1j * c.y_re) / scale
    return mat2(0.0, off, np.conj(off), 0.0)


# --------------------------------------------------------------------------
# Quadrature for the integrated sigma_z drive
# --------------------------------------------------------------------------


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson integral of a smooth scalar function.

    The scenarios integrate on fixed Gauss-Legendre panels instead (see
    ``_RunningIntegral``); this is the independent reference quadrature.
    """
    if a == b:
        return 0.0

    def _simpson(lo, fl, hi, fh, fm):
        return (hi - lo) / 6.0 * (fl + 4.0 * fm + fh)

    def _recurse(lo, fl, hi, fh, fm, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = f(lm)
        frm = f(rm)
        left = _simpson(lo, fl, mid, fm, flm)
        right = _simpson(mid, fm, hi, fh, frm)
        if depth <= 0:
            raise ConstraintError(
                f"quadrature failed to converge on [{lo}, {hi}] (tolerance {eps:.1e})"
            )
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (
            _recurse(lo, fl, mid, fm, flm, left, eps / 2.0, depth - 1)
            + _recurse(mid, fm, hi, fh, frm, right, eps / 2.0, depth - 1)
        )

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = _simpson(a, fa, b, fb, fm)
    return _recurse(a, fa, b, fb, fm, whole, tol, 48)


_PANEL_WIDTH = 0.125
# numpy.polynomial.legendre.leggauss(16), bit for bit (tests/test_model.py
# checks it), as literals so that importing the model does not import
# numpy.polynomial
_GAUSS_NODES = np.array([float.fromhex(h) for h in (
    "-0x1.fa92c264d787ep-1", "-0x1.e39f56616f9b0p-1", "-0x1.bb3403514e483p-1",
    "-0x1.82c45dda4726bp-1", "-0x1.3c5a466d5e8b8p-1", "-0x1.d50259a43a772p-2",
    "-0x1.205cae642337cp-2", "-0x1.852bd6676a9f9p-4", "0x1.852bd6676a9f9p-4",
    "0x1.205cae642337cp-2", "0x1.d50259a43a772p-2", "0x1.3c5a466d5e8b8p-1",
    "0x1.82c45dda4726bp-1", "0x1.bb3403514e483p-1", "0x1.e39f56616f9b0p-1",
    "0x1.fa92c264d787ep-1",
)])
_GAUSS_WEIGHTS = np.array([float.fromhex(h) for h in (
    "0x1.bcddab4b7c228p-6", "0x1.fdfb1a2c1261ep-5", "0x1.85c4ee79cc24bp-4",
    "0x1.fe7af2bad3878p-4", "0x1.325f61bca3cbep-3", "0x1.5a6ebbb5a7600p-3",
    "0x1.75f8c77e0c011p-3", "0x1.83feae80e4e01p-3", "0x1.83feae80e4e01p-3",
    "0x1.75f8c77e0c011p-3", "0x1.5a6ebbb5a7600p-3", "0x1.325f61bca3cbep-3",
    "0x1.fe7af2bad3878p-4", "0x1.85c4ee79cc24bp-4", "0x1.fdfb1a2c1261ep-5",
    "0x1.bcddab4b7c228p-6",
)])
_MAX_QUADRATURE_NODES = 1 << 22
_MEMO_SIZE = 16


def _gauss(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """16-point Gauss-Legendre integrals of f over [lo, hi], elementwise,
    summed in a fixed order so that no integral's bits depend on the others."""
    half = 0.5 * (hi - lo)
    total = np.zeros(lo.shape)
    for node_values, weight in zip(f((lo + half) + half * _GAUSS_NODES[:, None]), _GAUSS_WEIGHTS):
        total = total + node_values * weight
    return total * half


def _no_convergence(ends, tol: float) -> ConstraintError:
    return ConstraintError(
        f"quadrature failed to converge on [{np.min(ends)}, {np.max(ends)}] (tolerance {tol:.1e})"
    )


def _leaves(f, count: int, sign: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Pieces of the first ``count`` panels on one side of 0: their starts
    in order outward from 0, and the integral from 0 to each start.

    Panels of width ``_PANEL_WIDTH`` anchored at 0 are halved until the
    16-point rule on each piece agrees with the rule on its two halves
    within ``tol`` times its width, which only the panel's own values
    decide; the halves are kept.
    """
    lo = sign * _PANEL_WIDTH * np.arange(count)
    hi = lo + sign * _PANEL_WIDTH
    whole = _gauss(f, lo, hi)
    nodes = 16 * lo.size
    starts, values = [], []
    while lo.size:
        nodes += 32 * lo.size
        if nodes > _MAX_QUADRATURE_NODES:
            raise _no_convergence((lo, hi), tol)
        mid = 0.5 * (lo + hi)
        stuck = (mid == lo) | (mid == hi)  # a piece one ulp wide
        if stuck.any():
            raise _no_convergence((lo[stuck], hi[stuck]), tol)
        left, right = _gauss(f, lo, mid), _gauss(f, mid, hi)
        done = np.abs(left + right - whole) <= tol * np.abs(hi - lo)
        starts += [lo[done], mid[done]]
        values += [left[done], right[done]]
        split = ~done
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
        whole = np.concatenate((left[split], right[split]))
    starts = np.concatenate(starts)
    order = np.argsort(sign * starts)
    # a sequential sum, so its prefix does not depend on how far it reaches
    before = np.concatenate(([0.0], np.cumsum(np.concatenate(values)[order][:-1])))
    return starts[order], before


class _RunningIntegral:
    """Integral from 0 to t of a scalar coefficient, a pure function of t.

    t gets the integral up to the start of its piece (:func:`_leaves`)
    plus the 16-point rule over [piece start, t], so a value depends
    neither on earlier queries nor on the rest of a vector query.  The
    last ``_MEMO_SIZE`` queries (keyed on their exact bytes) and panel
    sets serve repeats.  Constant integrands short-circuit to c*t.
    """

    shape_generic = True

    def __init__(self, coefficient: Coefficient, tol: float = 1e-10):
        self._fun = lambda s: coefficient_value(coefficient, s)
        self._tol = tol
        self._const = None
        if isinstance(coefficient, (int, float)):
            self._const = float(coefficient)
        elif not callable(coefficient):
            self._const = expr.constant_value(coefficient)
        self._memo: dict = {}

    def _remember(self, key, compute):
        if key not in self._memo:
            if len(self._memo) >= _MEMO_SIZE:
                del self._memo[next(iter(self._memo))]
            self._memo[key] = compute()
        return self._memo[key]

    def _integrate(self, flat: np.ndarray) -> np.ndarray:
        values = np.empty(flat.shape)
        ahead = flat >= 0.0
        for side, sign in ((ahead, 1.0), (~ahead, -1.0)):
            if side.any():
                t = flat[side]
                end = float(np.max(sign * t))
                count = end // _PANEL_WIDTH + 1.0
                # the panels and their halves; the test also fails for a non-finite end
                if not 48.0 * count <= _MAX_QUADRATURE_NODES:
                    raise _no_convergence((0.0, sign * end), self._tol)
                starts, before = self._remember(
                    (sign, count), lambda: _leaves(self._fun, int(count), sign, self._tol))
                k = np.searchsorted(sign * starts, sign * t, side="right") - 1
                values[side] = before[k] + _gauss(self._fun, starts[k], t)
        return values

    def __call__(self, t):
        vector = is_time_vector(t)
        t = np.asarray(t, dtype=float) if vector else float(t)
        if self._const is not None:
            return self._const * t
        flat = np.ravel(t)
        values = self._remember(flat.tobytes(), lambda: self._integrate(flat))
        return values.reshape(t.shape).copy() if vector else float(values[0])


# --------------------------------------------------------------------------
# Scenarios
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConstants:
    """Integration constants of the closed-form Dyson maps."""

    c1: float
    c2: float = 0.0
    omega: float = 0.0


@dataclass(frozen=True)
class ScenarioSolution:
    """A closed-form Dyson-map scenario.

    ``eta``, ``eta_dot``, ``rho`` and ``hermitian_hamiltonian`` are pure
    time-indexed matrix functions, shape-generic like :meth:`hamiltonian`
    (a vector of times gives an (N, 2, 2) stack); ``path`` is the
    completed coefficient set with all dependent components filled in.
    ``metric_exponent`` is the integrated sigma_z drive of the hermitian
    map; ``y_coupling`` is the sigma_y coefficient of the mapped Hermitian
    Hamiltonian in the nonhermitian map.  Instances are immutable and
    evaluations are pure: the same t gives the same bits, whatever was
    evaluated before.
    """

    kind: str  # "hermitian" | "nonhermitian"
    constants: ScenarioConstants
    path: ParameterPath
    eta: Callable[[float], np.ndarray]
    eta_dot: Callable[[float], np.ndarray]
    rho: Callable[[float], np.ndarray]
    hermitian_hamiltonian: Callable[[float], np.ndarray]
    metric_exponent: Callable[[float], float] | None = None
    y_coupling: Callable[[float], float] | None = None

    @shape_generic
    def hamiltonian(self, t) -> np.ndarray:
        return hamiltonian(self.path, t)


DEFAULT_VALIDATION_TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)


def dyson_residual(scenario: ScenarioSolution, t, *, step: float | None = None):
    """max |eta H eta^-1 + i eta_dot eta^-1 - h| with finite-difference eta_dot.

    This is the substitution certificate for a scenario: it is computed
    from the completed path and the closed-form matrices only, with the
    time derivative taken numerically, so it is independent of how the
    scenario was constructed.  A vector t gives one residual per time.
    """
    eta = scenario.eta(t)
    eta_inv = np.linalg.inv(eta)
    eta_dot = operator_time_derivative(scenario.eta, t, step)
    h = scenario.hermitian_hamiltonian(t)
    return entry_max(eta @ scenario.hamiltonian(t) @ eta_inv + 1j * eta_dot @ eta_inv - h)


_RESIDUAL_TOL = 1e-8  # the builders' gate on the substitution certificate


def _validate(scenario: ScenarioSolution, times: Sequence[float]) -> None:
    """Certify a scenario at the given times with one vector residual
    call; if that call raises, the times are replayed one at a time so the
    first failure in time order names the cause.  An overflow shows as a
    non-finite residual at its time."""
    # later times may overflow where an earlier one already fails; the
    # comparison below reports the first failure, so no warning here
    with np.errstate(all="ignore"):
        try:
            residuals = dyson_residual(scenario, np.asarray(times, dtype=float))
        except ValueError:
            residuals = None
        for k, t in enumerate(times):
            resid = dyson_residual(scenario, t) if residuals is None else residuals[k]
            if not (resid <= _RESIDUAL_TOL):
                raise ScenarioValidationError(
                    f"{scenario.kind} scenario fails the Dyson-equation substitution check "
                    f"at t={t}: residual {resid:.3e} > {_RESIDUAL_TOL:.1e}"
                )


def build_hermitian_map_scenario(
    x_re: Coefficient | str,
    y_re: Coefficient | str,
    z_im: Coefficient | str,
    constants: ScenarioConstants,
    *,
    validate_at: Sequence[float] | None = DEFAULT_VALIDATION_TIMES,
    quadrature_tol: float = 1e-10,
) -> ScenarioSolution:
    """Diagonal Hermitian Dyson map driven by the integrated sigma_z drive.

    Free functions: x_re, y_re, z_im.  Derived: with
    g = (a^2 - b^2) / (2 (a^2 + b^2)) built from the map entries
    a = (c1+c2) exp(d/2), b = (c1-c2) exp(-d/2), d(t) = integral of z_im,

        y_im = -2 x_re g,   x_im = +2 y_re g,   z_re = 0,

    so the static-symmetry constraints hold along the whole path, also
    where x_re crosses zero.  The metric is rho = diag(a^2, b^2) with
    det rho = (c1^2 - c2^2)^2 constant in time.

    d(t) is exact for a constant z_im, else a pure function of t summed
    over fixed Gauss-Legendre panels (``_RunningIntegral``); ``quadrature_tol``
    bounds its error over |t| <= 1, and further out the error is round-off
    of the running sum (about 1e-13 at t = 1000 for a unit drive).  A drive
    that does not converge, or a query whose panels would need more than
    2^22 nodes, raises :class:`ConstraintError`.
    """
    c1, c2 = constants.c1, constants.c2
    if abs(c1 * c1 - c2 * c2) <= 1e-12 * (c1 * c1 + c2 * c2 + 1.0):
        raise ConstraintError("constants need c1^2 != c2^2, else the metric is singular")
    x_re = as_coefficient(x_re)
    y_re = as_coefficient(y_re)
    z_im = as_coefficient(z_im)
    exponent = _RunningIntegral(z_im, quadrature_tol)

    def entries(t):
        d = exponent(t)
        return (c1 + c2) * np.exp(0.5 * d), (c1 - c2) * np.exp(-0.5 * d)

    @shape_generic
    def eta(t) -> np.ndarray:
        a, b = entries(t)
        return mat2(a, 0.0, 0.0, b)

    @shape_generic
    def eta_dot(t) -> np.ndarray:
        a, b = entries(t)
        rate = 0.5 * coefficient_value(z_im, t)
        return mat2(a * rate, 0.0, 0.0, -b * rate)

    @shape_generic
    def rho(t) -> np.ndarray:
        a, b = entries(t)
        return mat2(a * a, 0.0, 0.0, b * b)

    def shear(t):
        a, b = entries(t)
        return (a * a - b * b) / (2.0 * (a * a + b * b))

    path = ParameterPath(
        omega=constants.omega,
        x_re=x_re,
        x_im=shape_generic(lambda t: 2.0 * coefficient_value(y_re, t) * shear(t)),
        y_re=y_re,
        y_im=shape_generic(lambda t: -2.0 * coefficient_value(x_re, t) * shear(t)),
        z_re=0.0,
        z_im=z_im,
    )

    @shape_generic
    def h_mapped(t) -> np.ndarray:
        d = exponent(t)
        denom = (c1 * c1 + c2 * c2) * np.cosh(d) + 2.0 * c1 * c2 * np.sinh(d)
        off = (
            -(c1 * c1 - c2 * c2)
            * (coefficient_value(x_re, t) - 1j * coefficient_value(y_re, t))
            / (2.0 * denom)
        )
        half = -0.5 * constants.omega
        return mat2(half, off, np.conj(off), half)

    scenario = ScenarioSolution(
        kind="hermitian",
        constants=constants,
        path=path,
        eta=eta,
        eta_dot=eta_dot,
        rho=rho,
        hermitian_hamiltonian=h_mapped,
        metric_exponent=exponent,
    )
    if validate_at:
        _validate(scenario, validate_at)
    return scenario


def build_nonhermitian_map_scenario(
    x_re: Coefficient | str,
    y_im: Coefficient | str,
    z_im: Coefficient | str,
    constants: ScenarioConstants,
    *,
    validate_at: Sequence[float] | None = DEFAULT_VALIDATION_TIMES,
) -> ScenarioSolution:
    """Non-Hermitian Dyson map built from the ratio y_im/x_re.

    Free functions: x_re, y_im, z_im, all required nonzero where sampled
    (the constraint scalar divides by y_im, the map by x_re).  With exact
    first derivatives of the free functions,

        A = z_im x_re^2 / y_im^2 - x_re' / y_im + x_re y_im' / y_im^2

    and the derived components are y_re = -z_im - 2A, x_im = 2 (y_im/x_re) A,
    z_re = y_im.  The map carries the time dependence only through the
    ratio y_im/x_re and an overall constant c1.
    """
    c1 = constants.c1
    if c1 == 0.0:
        raise ConstraintError("constant c1 must be nonzero")
    x_re = as_coefficient(x_re)
    y_im = as_coefficient(y_im)
    z_im = as_coefficient(z_im)

    @shape_generic
    def coupling(t):
        xr, dxr = coefficient_dual(x_re, t)
        yi, dyi = coefficient_dual(y_im, t)
        require_nonzero(yi, t, "y_im vanishes at t={t}; the constraint scalar divides by it")
        zi = coefficient_value(z_im, t)
        return zi * xr * xr / (yi * yi) - dxr / yi + xr * dyi / (yi * yi)

    def ratio_dual(t):
        xr, dxr = coefficient_dual(x_re, t)
        yi, dyi = coefficient_dual(y_im, t)
        require_nonzero(xr, t, "x_re vanishes at t={t}; the map divides by it")
        k = yi / xr
        return k, (dyi * xr - yi * dxr) / (xr * xr)

    @shape_generic
    def eta(t) -> np.ndarray:
        k, _ = ratio_dual(t)
        return c1 * mat2(k - 2.0, k, -k, -k - 2.0)

    @shape_generic
    def eta_dot(t) -> np.ndarray:
        _, dk = ratio_dual(t)
        rate = c1 * dk
        return mat2(rate, rate, -rate, -rate)

    @shape_generic
    def rho(t) -> np.ndarray:
        xr = coefficient_value(x_re, t)
        yi = coefficient_value(y_im, t)
        require_nonzero(xr, t, "x_re vanishes at t={t}; the metric divides by it")
        f = 2.0 * c1 * c1 / (xr * xr)
        return mat2(
            f * (yi * yi - 2.0 * yi * xr + 2.0 * xr * xr),
            f * (yi * yi),
            f * (yi * yi),
            f * (yi * yi + 2.0 * yi * xr + 2.0 * xr * xr),
        )

    @shape_generic
    def x_im_fun(t):
        xr = coefficient_value(x_re, t)
        require_nonzero(xr, t, "x_re vanishes at t={t}")
        return 2.0 * (coefficient_value(y_im, t) / xr) * coupling(t)

    path = ParameterPath(
        omega=constants.omega,
        x_re=x_re,
        x_im=x_im_fun,
        y_re=shape_generic(lambda t: -coefficient_value(z_im, t) - 2.0 * coupling(t)),
        y_im=y_im,
        z_re=shape_generic(lambda t: coefficient_value(y_im, t)),
        z_im=z_im,
    )

    @shape_generic
    def h_mapped(t) -> np.ndarray:
        a = coupling(t)
        xr = coefficient_value(x_re, t)
        half = -0.5 * constants.omega
        return mat2(half, -0.5 * xr - 1j * a, -0.5 * xr + 1j * a, half)

    scenario = ScenarioSolution(
        kind="nonhermitian",
        constants=constants,
        path=path,
        eta=eta,
        eta_dot=eta_dot,
        rho=rho,
        hermitian_hamiltonian=h_mapped,
        y_coupling=coupling,
    )
    if validate_at:
        _validate(scenario, validate_at)
    return scenario
