"""Dense complex linear algebra for small operator matrices.

Everything here works on plain ``numpy`` arrays of shape (n, n) for any
n: the eigensolver (:func:`eig_biorthogonal`, :func:`metric_normalized`),
the RK4 step matrices (:func:`rk4_transfer`) and the residuals stay
n-generic, and so do the propagators built on them
(``evolution.tdse_integrate``, ``operators.metric_ode_solve``).  The
model and the eigen-trajectories are two-level.  The one non-trivial piece
is the biorthogonal eigendecomposition: left eigenvectors are defined
through the inverse of the right-eigenvector matrix, so the pairing
<left_n | right_m> = delta_nm holds by construction up to round-off,
with no separate adjoint eigensolve.

Operators and residuals also take (N, n, n) stacks, one matrix per grid
point; a residual of a stack is an (N,) array of per-matrix maxima.
Functions of time follow the same shape contract: a float t gives one
matrix, a vector of N times an (N, n, n) stack.  Functions written for
both are marked with :func:`shape_generic`; :func:`on_times` samples any
other function point by point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY_2",
    "DefectiveMatrixError",
    "shape_generic",
    "on_times",
    "adjoint",
    "entry_max",
    "Eigensystem",
    "eig_biorthogonal",
    "metric_normalized",
    "commutator",
    "hermiticity_residual",
    "positivity_check",
    "operator_time_derivative",
    "rk4_transfer",
    "max_abs",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a

PAULI_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))
IDENTITY_2 = _frozen(np.eye(2, dtype=complex))


class DefectiveMatrixError(ValueError):
    """Eigenvector matrix is numerically singular (eigenvalue coalescence).

    ``index`` is the position of the first defective matrix of a stack.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


# is_time_vector, first_index and mat2 serve the tdnh modules and stay out of __all__.


def is_time_vector(t) -> bool:
    """True for a vector of times, False for a single time."""
    # floats (numpy's included) skip np.ndim, which costs more than many scalar evaluations
    return not isinstance(t, float) and np.ndim(t) > 0


def shape_generic(fun):
    """Mark a function of time that takes a vector of times whole."""
    fun.shape_generic = True
    return fun


def on_times(fun, t):
    """fun at t: a vector t goes whole to a :func:`shape_generic` function
    and point by point to any other, whose results are stacked."""
    if not is_time_vector(t) or getattr(fun, "shape_generic", False):
        return fun(t)
    t = np.asarray(t, dtype=float)
    values = np.stack([np.asarray(fun(s)) for s in t.ravel()])
    return values.reshape(t.shape + values.shape[1:])


def first_index(mask) -> int | None:
    """Flat position of the first set entry of a mask (a bool counts as
    position 0), or None when nothing is set."""
    mask = np.asarray(mask)
    return int(np.argmax(mask)) if mask.any() else None


def mat2(a, b, c, d) -> np.ndarray:
    """The complex matrix [[a, b], [c, d]]; array entries give an (..., 2, 2) stack."""
    try:  # one time, or entries of one shape
        m = np.array([[a, b], [c, d]], dtype=complex)
    except ValueError:  # array entries mixed with scalars
        entries = np.broadcast_arrays(a, b, c, d)
        m = np.array(entries, dtype=complex).reshape((2, 2) + entries[0].shape)
    return m if m.ndim == 2 else np.ascontiguousarray(np.moveaxis(m, (0, 1), (-2, -1)))


def adjoint(a) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.conj(a).swapaxes(-1, -2)


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; the residual norm used throughout."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def entry_max(a):
    """Largest entry magnitude of a matrix, or (N,) maxima over a stack."""
    return np.max(np.abs(a), axis=(-2, -1))


def _square(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise ValueError(f"{name} must be square with dimension >= 1, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def commutator(a, b) -> np.ndarray:
    """[a, b] = ab - ba."""
    a = _square(a, "a")
    b = _square(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def hermiticity_residual(a):
    """max |a - a^dag| entry; zero iff a is Hermitian."""
    a = _square(a)
    return entry_max(a - adjoint(a))


def positivity_check(a) -> tuple[bool, np.ndarray]:
    """Eigenvalues of the Hermitian part of ``a`` and a strict-positivity verdict.

    Never raises; callers asking about non-Hermitian input get the verdict
    for (a + a^dag)/2.
    """
    a = _square(a)
    eigs = np.linalg.eigvalsh(0.5 * (a + adjoint(a)))
    return bool(np.all(eigs > 0.0)), eigs


def operator_time_derivative(fun, t, step=None) -> np.ndarray:
    """Central difference (fun(t+h) - fun(t-h)) / 2h of a matrix-valued function.

    The default step 1e-5 * max(1, |t|) balances truncation against
    round-off at double precision.  A vector t gives an (N, n, n) stack.
    """
    if step is None:
        step = 1e-5 * np.maximum(1.0, np.abs(t))
    hi = np.asarray(on_times(fun, t + step), dtype=complex)
    lo = np.asarray(on_times(fun, t - step), dtype=complex)
    width = 2.0 * np.asarray(step, dtype=float)
    return (hi - lo) / width.reshape(width.shape + (1,) * (hi.ndim - width.ndim))


def rk4_transfer(generator, dt: float) -> np.ndarray:
    """Classical RK4 step matrices of the linear ODE y' = A(t) y.

    ``generator`` stacks A over the 2N+1 half-step times t_0, t_0 + dt/2,
    t_1, ..., t_N of a uniform grid, shape (2N+1, m, m).  Returns the
    (N, m, m) stack R with y_k+1 = R[k] y_k:

        R = I + dt/6 (S1 + 2 S2 + 2 S3 + S4),   S1 = A(t_k),
        S2 = A_mid (I + dt/2 S1),  S3 = A_mid (I + dt/2 S2),  S4 = A(t_k+1) (I + dt S3),

    where S_j y_k is the RK4 stage k_j, so stepping with R reproduces the
    stage form up to round-off.
    """
    a = np.asarray(generator, dtype=complex)
    eye = np.eye(a.shape[-1])
    start, mid, end = a[:-1:2], a[1::2], a[2::2]
    s2 = mid + 0.5 * dt * (mid @ start)
    s3 = mid + 0.5 * dt * (mid @ s2)
    s4 = end + dt * (end @ s3)
    return eye + (dt / 6.0) * (start + 2.0 * s2 + 2.0 * s3 + s4)


@dataclass(frozen=True)
class Eigensystem:
    """Eigenvalues with paired right/left eigenvectors.

    ``right[:, n]`` and ``left[:, n]`` satisfy <left_n | right_m> = delta_nm,
    i.e. ``left.conj().T @ right == I`` up to round-off.
    """

    values: np.ndarray   # (n,), or (N, n) for a stack
    right: np.ndarray    # (n, n), column n is the right vector of values[n]
    left: np.ndarray     # (n, n), column n is the paired left vector
    ordering: str = "real_asc"

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    def biorthonormality_residual(self) -> float:
        return max_abs(adjoint(self.left) @ self.right - np.eye(self.dim))

    def completeness_residual(self) -> float:
        return max_abs(self.right @ adjoint(self.left) - np.eye(self.dim))

    def reconstruction_residual(self, m) -> float:
        scaled = self.right * self.values[..., None, :]
        return max_abs(scaled @ adjoint(self.left) - np.asarray(m))


_ORDERINGS = ("real_asc", "real_desc", "none")


def eig_biorthogonal(m, *, cond_limit: float = 1e8, ordering: str = "real_asc") -> Eigensystem:
    """Biorthogonal eigendecomposition of a diagonalizable complex matrix.

    Raises :class:`DefectiveMatrixError` when the right-eigenvector matrix
    has condition number above ``cond_limit``, which signals proximity to
    an exceptional point (eigenvector coalescence), not just degeneracy.
    An (N, n, n) stack is decomposed matrix by matrix into an eigensystem
    of stacked arrays; the error then carries the first defective index.
    """
    if ordering not in _ORDERINGS:
        raise ValueError(f"ordering must be one of {_ORDERINGS}")
    a = _square(m)
    values, right = np.linalg.eig(a)
    cond = np.linalg.cond(right)
    bad = first_index(~np.isfinite(cond) | (cond > cond_limit))
    if bad is not None:
        raise DefectiveMatrixError(
            f"eigenvector matrix condition {np.ravel(cond)[bad]:.3e} exceeds {cond_limit:.1e}; "
            "matrix is numerically defective (possible exceptional point)",
            index=bad if a.ndim > 2 else None,
        )
    if ordering != "none":
        sign = 1.0 if ordering == "real_asc" else -1.0
        idx = np.lexsort((sign * values.imag, sign * values.real), axis=-1)
        values = np.take_along_axis(values, idx, axis=-1)
        right = np.take_along_axis(right, idx[..., None, :], axis=-1)
    left = adjoint(np.linalg.inv(right))
    return Eigensystem(_frozen(values), _frozen(right), _frozen(left), ordering)


def metric_normalized(es: Eigensystem, metric) -> Eigensystem:
    """Rescale an eigensystem so every right vector has unit metric norm.

    Each right vector is divided by sqrt(<psi|metric|psi>) and the paired
    left vector multiplied by it, which preserves biorthonormality.  For a
    positive-definite metric and a metric-quasi-Hermitian operator the
    rescaled left vectors coincide with metric @ right up to round-off.
    """
    rho = _square(metric, "metric")
    bra_rho = adjoint(es.right) @ rho   # row n is <psi_n| rho
    norm_sq = np.real(np.sum(bra_rho.swapaxes(-1, -2) * es.right, axis=-2))
    if np.any(norm_sq <= 0.0):
        raise ValueError("metric norm is not positive; metric must be positive definite")
    scale = np.sqrt(norm_sq)[..., None, :]
    return Eigensystem(es.values, _frozen(es.right / scale), _frozen(es.left * scale), es.ordering)
