"""Grid-batched evaluation against the per-point scalar path as the oracle.

Every function of time takes a float t or a vector of times; the vector
path must reproduce the float path point by point, up to round-off
(numpy's vectorised sin/cos/exp may differ from the C library's in the
last bits), and must raise the error the float path raises at the first
offending time.  The hermitian map's drive integral evaluates every query
as a vector, so its float and vector values are compared bit for bit.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from tdnh.evolution import (
    GaugeAlignmentError,
    LevelCrossingError,
    NormDriftError,
    TimeGrid,
    berry_phase_loop,
    eigen_trajectory,
    scenario_eigen_trajectory,
    tdse_integrate,
)
from tdnh.expr import (
    Binary,
    EvalDomainError,
    Num,
    TimeVar,
    Unary,
    UNARY_FUNCTIONS,
    evaluate,
    evaluate_dual,
    parse,
    to_source,
)
from tdnh.linalg import (
    DefectiveMatrixError,
    eig_biorthogonal,
    mat2,
    metric_normalized,
    shape_generic,
)
from tdnh.model import (
    ParameterPath,
    ScenarioConstants,
    adaptive_simpson,
    build_hermitian_map_scenario,
    build_nonhermitian_map_scenario,
    coefficient_value,
    discriminant_value,
    static_constraint_residual,
    static_parity,
)
from tdnh.operators import metric_ode_solve, scenario_energy_operator

EPS = float(np.finfo(float).eps)
I2 = np.eye(2, dtype=complex)


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


def random_tree(rng: np.random.Generator, depth: int):
    """Random expression over t; shallow enough to keep magnitudes moderate."""
    if depth == 0 or rng.random() < 0.25:
        return TimeVar() if rng.random() < 0.5 else Num(float(np.round(rng.uniform(0.1, 2.0), 3)))
    kind = rng.integers(3)
    if kind == 0:
        return Unary(str(rng.choice(UNARY_FUNCTIONS)), random_tree(rng, depth - 1))
    if kind == 1:
        return Unary("neg", random_tree(rng, depth - 1))
    op = str(rng.choice(["+", "-", "*", "/", "^"]))
    return Binary(op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def subtrees(node):
    yield node
    for child in ("arg", "left", "right"):
        if hasattr(node, child):
            yield from subtrees(getattr(node, child))


def scalar_outcome(ast, t: float, dual: bool):
    try:
        return (evaluate_dual if dual else evaluate)(ast, t), None
    except EvalDomainError as exc:
        return None, exc


def intermediate_scale(ast, t: float) -> float:
    """Largest |value| or |derivative| of any subexpression at t: the size
    of the numbers whose round-off reaches the result."""
    scale = 1.0
    for sub in subtrees(ast):
        d = evaluate_dual(sub, t)
        scale = max(scale, abs(d.value), abs(d.derivative))
    return scale


def test_random_trees_match_the_float_walk():
    """Values and exact derivatives agree within a few ulp: at least 99% of
    them within 4 ulp, and every one within 64 eps of the largest
    intermediate, or 1e-9 relative where a cancellation feeds a division
    and amplifies the last-bit differences of the library functions."""
    rng = np.random.default_rng(20221110)
    times = np.linspace(0.05, 1.95, 41)
    checked = raised = 0
    ulps = []
    for _ in range(400):
        # reparse so offsets are real source offsets
        ast = parse(to_source(random_tree(rng, 4)))
        for dual in (False, True):
            outcomes = [scalar_outcome(ast, t, dual) for t in times]
            first_bad = next((k for k, (_, exc) in enumerate(outcomes) if exc is not None), None)
            if first_bad is not None:
                expected = outcomes[first_bad][1]
                with pytest.raises(EvalDomainError) as err:
                    (evaluate_dual if dual else evaluate)(ast, times)
                assert err.value.offset == expected.offset, to_source(ast)
                assert err.value.t == times[first_bad], to_source(ast)
                assert str(err.value).startswith(str(expected)), to_source(ast)
                assert f"first at t={float(times[first_bad])!r}" in str(err.value)
                raised += 1
                continue
            batched = (evaluate_dual if dual else evaluate)(ast, times)
            if dual:
                pairs = [(batched.value, [o.value for o, _ in outcomes]),
                         (batched.derivative, [o.derivative for o, _ in outcomes])]
            else:
                pairs = [(batched, [o for o, _ in outcomes])]
            scale = np.array([intermediate_scale(ast, t) for t in times])
            for new, old in pairs:
                old = np.array(old)
                diff = np.abs(new - old)
                ulps.append(diff / np.spacing(np.maximum(np.abs(old), np.finfo(float).tiny)))
                bound = np.maximum(64.0 * EPS * scale, 1e-9 * np.abs(old))
                assert np.all(diff <= bound), to_source(ast)
            checked += 1
    assert checked > 300 and raised > 50  # both outcomes are exercised
    assert np.mean(np.concatenate(ulps) <= 4.0) >= 0.99


@pytest.mark.parametrize("source, first_t, offset", [
    ("log(0.5 - t)", 0.5, 0),
    ("1 / (t - 0.25)", 0.25, 2),
    ("sqrt(0.75 - t)", 0.8, 0),
    ("t ^ (t - 1)", 0.0, 2),
])
def test_domain_error_names_first_time(source, first_t, offset):
    times = np.linspace(0.0, 1.0, 21)
    ast = parse(source)
    with pytest.raises(EvalDomainError) as err:
        evaluate(ast, times)
    assert err.value.offset == offset
    assert err.value.t == pytest.approx(first_t)
    assert f"first at t={err.value.t!r}" in str(err.value)


def test_vector_shape_is_kept():
    ast = parse("2*t + sin(t)")
    grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    assert evaluate(ast, grid).shape == (3, 4)
    d = evaluate_dual(parse("3"), grid)
    assert d.value.shape == d.derivative.shape == (3, 4)
    assert np.all(d.value == 3.0) and np.all(d.derivative == 0.0)


# --------------------------------------------------------------------------
# Scenario stacks
# --------------------------------------------------------------------------


def hermitian_loop():
    return build_hermitian_map_scenario(
        "cos(2*pi*t)", "sin(2*pi*t)", "1.2*sin(2*pi*t)",
        ScenarioConstants(c1=2.0, c2=1.0, omega=0.3), validate_at=(0.1, 0.6))


def nonhermitian_drive():
    return build_nonhermitian_map_scenario(
        "1.5+0.4*sin(2*pi*t)", "1+0.3*cos(2*pi*t)", "0.7+0.2*sin(4*pi*t)",
        ScenarioConstants(c1=0.8, omega=0.4))


def per_point(fun, times):
    return np.stack([np.asarray(fun(t)) for t in times])


@pytest.mark.parametrize("build, tol", [
    (nonhermitian_drive, 64.0 * EPS),
    # the drive integral is a pure function of t, so only round-off is left
    (hermitian_loop, 64.0 * EPS),
])
def test_scenario_stacks_match_scalar_calls(build, tol):
    sc = build()
    times = np.linspace(0.0, 1.0, 257)
    funcs = [sc.eta, sc.eta_dot, sc.rho, sc.hermitian_hamiltonian, sc.hamiltonian,
             lambda t: scenario_energy_operator(sc, t),
             lambda t: discriminant_value(sc.path, t),
             lambda t: static_constraint_residual(sc.path, t)]
    funcs += [lambda t, name=name: coefficient_value(getattr(sc.path, name), t)
              for name in sc.path.coefficient_names()]
    for fun in funcs:
        stack = fun(times)
        reference = per_point(fun, times)
        assert stack.shape == reference.shape
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(stack - reference)) <= tol * scale
    if sc.kind == "hermitian":
        parity = static_parity(sc.path, times)
        assert np.max(np.abs(parity - per_point(lambda t: static_parity(sc.path, t), times))) \
            <= tol


def test_batched_drive_integral_within_quadrature_tol():
    tol = 1e-10
    z_im = "1.2*sin(2*pi*t) + 0.3*cos(5*t)"
    sc = build_hermitian_map_scenario("cos(2*pi*t)", "sin(2*pi*t)", z_im,
                                      ScenarioConstants(c1=2.0, c2=1.0), validate_at=None,
                                      quadrature_tol=tol)
    times = np.linspace(0.0, 1.0, 2001)
    integrand = parse(z_im)
    batched = sc.metric_exponent(times)
    for t, value in zip(times[::50], batched[::50]):
        assert abs(value - adaptive_simpson(lambda s: evaluate(integrand, s), 0.0, t, 1e-13)) <= tol
    # finite-difference probes next to the grid
    h = 1e-5
    for offset in (h, -h):
        probes = sc.metric_exponent(times + offset)
        for t, value in zip(times[::50], probes[::50]):
            exact = adaptive_simpson(lambda s: evaluate(integrand, s), 0.0, t + offset, 1e-13)
            assert abs(value - exact) <= tol
    # a coarse unsorted vector
    coarse = np.array([0.9, 0.1, 0.5])
    for t, value in zip(coarse, sc.metric_exponent(coarse)):
        assert abs(value - adaptive_simpson(lambda s: evaluate(integrand, s), 0.0, t, 1e-13)) <= tol


LOOP_DRIVE = "1.2*sin(2*pi*t) + 0.3*cos(5*t)"


def drive_loop(**kwargs):
    return build_hermitian_map_scenario("cos(2*pi*t)", "sin(2*pi*t)", LOOP_DRIVE,
                                        ScenarioConstants(c1=2.0, c2=1.0), **kwargs)


def test_grid_after_probe_vector_equals_fresh_grid():
    # the certificate's probe vector is queried first
    times = np.linspace(0.0, 1.0, 2001)
    probes = times[::250]
    probed = drive_loop(validate_at=list(probes))
    probed.metric_exponent(probes)
    fresh = drive_loop(validate_at=None)
    np.testing.assert_array_equal(probed.metric_exponent(times), fresh.metric_exponent(times))
    np.testing.assert_array_equal(probed.eta(times), fresh.eta(times))


def test_float_query_equals_vector_element():
    times = np.linspace(0.0, 1.0, 2001)
    grid = drive_loop(validate_at=None).metric_exponent(times)
    for k in (0, 1, 700, 2000):
        assert drive_loop(validate_at=None).metric_exponent(float(times[k])) == grid[k]


@pytest.mark.parametrize("drive", [LOOP_DRIVE, "1.2*sin(2*pi*t)", "exp(t)*cos(3*t)", "t^2"])
def test_drive_integral_is_a_pure_function_of_t(drive):
    def fresh():
        return build_hermitian_map_scenario("cos(2*pi*t)", "sin(2*pi*t)", drive,
                                            ScenarioConstants(c1=2.0, c2=1.0), validate_at=None)

    times = np.linspace(0.0, 1.0, 8001)
    probes = times[::7] + 1e-5
    sc = fresh()
    grid = sc.metric_exponent(times)
    np.testing.assert_array_equal(sc.metric_exponent(probes), fresh().metric_exponent(probes))
    far = np.linspace(9.5, 10.5, 101)
    near_first = fresh()
    near_first.metric_exponent(times)
    far_first = fresh()
    np.testing.assert_array_equal(far_first.metric_exponent(far), near_first.metric_exponent(far))
    np.testing.assert_array_equal(far_first.metric_exponent(times), grid)


def test_float_sweep_within_quadrature_tol():
    tol = 1e-10
    sc = drive_loop(validate_at=None, quadrature_tol=tol)
    integrand = parse(LOOP_DRIVE)
    fun = lambda s: evaluate(integrand, s)
    for k, t in enumerate(np.linspace(0.0, 1.0, 1000)):
        value = sc.metric_exponent(float(t))
        if k % 50 == 0 or k == 999:
            assert abs(value - adaptive_simpson(fun, 0.0, t, 1e-13)) <= tol


def test_far_window_within_quadrature_tol():
    tol = 1e-10
    sc = build_hermitian_map_scenario(1.0, 0.0, "1.2*sin(2*pi*t)",
                                      ScenarioConstants(c1=2.0, c2=1.0), validate_at=None,
                                      quadrature_tol=tol)
    times = np.linspace(1000.0, 1001.0, 8001)
    exact = 1.2 * (1.0 - np.cos(2.0 * np.pi * times)) / (2.0 * np.pi)
    assert np.max(np.abs(sc.metric_exponent(times) - exact)) <= tol


def test_grid_away_from_zero_within_quadrature_tol():
    tol = 1e-10
    sc = drive_loop(validate_at=None, quadrature_tol=tol)
    integrand = parse(LOOP_DRIVE)
    times = np.linspace(10.0, 11.0, 8001)
    fun = lambda s: evaluate(integrand, s)
    base = adaptive_simpson(fun, 0.0, 10.0, 1e-13)
    for offset in (0.0, 1e-5, -1e-5):
        for t, value in zip(times[::800], sc.metric_exponent(times + offset)[::800]):
            assert abs(value - base - adaptive_simpson(fun, 10.0, t + offset, 1e-13)) <= tol


def test_user_callables_are_sampled_point_by_point():
    calls = []

    def drive(t):
        calls.append(t)
        return math.cos(t)   # scalar-only

    path = ParameterPath(x_re=drive, y_re=0.5)
    times = np.linspace(0.0, 1.0, 5)
    np.testing.assert_array_equal(coefficient_value(path.x_re, times), np.cos(times))
    assert len(calls) == 5


# --------------------------------------------------------------------------
# Eigen-trajectories
# --------------------------------------------------------------------------


def reference_trajectory(op_fun, metric_fun, grid, *, cond_limit=1e8, tie_tol=1e-6):
    """The per-point eigen-trajectory: eigensolve, match and rephase one
    grid point after the other.  Returns (energies, right, left, overlaps)."""
    times = grid.times()
    first = metric_normalized(
        eig_biorthogonal(op_fun(times[0]), cond_limit=cond_limit, ordering="real_desc"),
        metric_fun(times[0]),
    )
    dim = first.dim
    energies = np.empty((times.shape[0], dim), dtype=complex)
    right = np.empty((times.shape[0], dim, dim), dtype=complex)
    left = np.empty((times.shape[0], dim, dim), dtype=complex)
    overlaps = np.empty((times.shape[0] - 1, dim))
    energies[0], right[0], left[0] = first.values, first.right, first.left
    for k in range(1, times.shape[0]):
        es = metric_normalized(
            eig_biorthogonal(op_fun(times[k]), cond_limit=cond_limit, ordering="none"),
            metric_fun(times[k]),
        )
        overlap = np.abs(left[k - 1].conj().T @ es.right)
        order = np.empty(dim, dtype=int)
        taken = np.zeros(dim, dtype=bool)
        for n in range(dim):
            row = np.where(taken, -np.inf, overlap[n])
            best = int(np.argmax(row))
            runner_up = np.max(np.where(np.arange(dim) == best, -np.inf, row))
            if runner_up > -np.inf and abs(row[best] - runner_up) <= tie_tol:
                raise LevelCrossingError(
                    f"level matching ambiguous at t={times[k]:.6g}: overlaps "
                    f"{row[best]:.6f} vs {runner_up:.6f}"
                )
            order[n] = best
            taken[best] = True
        r = es.right[:, order].copy()
        l = es.left[:, order].copy()
        for n in range(dim):
            z = left[k - 1][:, n].conj() @ r[:, n]
            mag = abs(z)
            if mag > 0.0:
                r[:, n] /= z / mag
                l[:, n] /= z / mag
            overlaps[k - 1, n] = mag
        energies[k], right[k], left[k] = es.values[order], r, l
    return energies, right, left, overlaps


def assert_same_trajectory(traj, reference, tol):
    energies, right, left, overlaps = reference
    np.testing.assert_allclose(traj.energies, energies, rtol=0, atol=tol)
    np.testing.assert_allclose(traj.right, right, rtol=0, atol=tol)
    np.testing.assert_allclose(traj.left, left, rtol=0, atol=tol)
    np.testing.assert_allclose(traj.overlaps, overlaps, rtol=0, atol=tol)


@pytest.mark.parametrize("build", [hermitian_loop, nonhermitian_drive])
def test_scenario_trajectory_matches_reference_loop(build):
    sc = build()
    grid = TimeGrid(0.0, 1.0, 400)
    traj = scenario_eigen_trajectory(sc, grid)
    reference = reference_trajectory(lambda t: scenario_energy_operator(sc, t), sc.rho, grid)
    assert_same_trajectory(traj, reference, 1e-9)


def random_hermitian(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return a + a.conj().T


def lattice_walk(rng, n_points):
    """Non-Hermitian 2x2 matrices with small Gaussian-integer entries, most
    one lattice step from the previous one; the lattice's symmetries make
    exact overlap ties.  Nearly defective matrices are drawn again."""
    ops = []
    while len(ops) < n_points:
        if ops and rng.random() < 0.7:
            op = ops[-1].copy()
            op[tuple(rng.integers(2, size=2))] += rng.choice([1, -1, 1j, -1j])
        else:
            op = (rng.integers(-2, 3, size=(2, 2)) + 1j * rng.integers(-1, 2, size=(2, 2))).astype(complex)
        if np.linalg.cond(np.linalg.eig(op)[1]) < 1e4:
            ops.append(op)
    return ops


def preference_counts(ops):
    """(restarts, swaps) of a run: steps at which both eigenvector indices
    prefer the same next index, and steps at which they exchange indices."""
    es = eig_biorthogonal(np.array(ops), ordering="none")
    preferred = np.argmax(np.abs(np.conj(es.left[:-1]).swapaxes(1, 2) @ es.right[1:]), axis=2)
    same = preferred[:, 0] == preferred[:, 1]
    return int(np.sum(same)), int(np.sum(~same & (preferred[:, 0] == 1)))


def trajectory_or_error(op_fun, grid, tracker, tie_tol):
    try:
        return tracker(op_fun, lambda t: I2, grid, tie_tol=tie_tol), None
    except LevelCrossingError as exc:
        return None, str(exc)


@pytest.mark.parametrize("seed", range(6))
def test_level_assignment_of_unrelated_matrices_matches_reference(seed):
    """Unrelated Hermitian matrices swap levels between points; walks of
    non-Hermitian matrices also make both levels prefer one eigenvector
    (a restart) and tie exactly.  The orders, or the LevelCrossingError
    text, must be those of the per-point matching."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.0, 1.0, 150)
    runs = [([random_hermitian(rng) for _ in grid.times()], grid, 1e-12)]
    walk_grid = TimeGrid(0.0, 1.0, 40)
    runs += [(lattice_walk(rng, walk_grid.n_points), walk_grid, 1e-6) for _ in range(20)]
    restarts = swaps = errors = 0
    for ops, run_grid, tie_tol in runs:
        table = dict(zip(run_grid.times().tolist(), ops))
        op_fun = lambda t: table[float(t)]
        traj, error = trajectory_or_error(op_fun, run_grid, eigen_trajectory, tie_tol)
        reference, expected = trajectory_or_error(op_fun, run_grid, reference_trajectory, tie_tol)
        assert error == expected
        if error is None:
            assert_same_trajectory(traj, reference, 1e-10)
        errors += error is not None
        run_restarts, run_swaps = preference_counts(ops)
        restarts += run_restarts
        swaps += run_swaps
    assert restarts > 0 and swaps > 0
    assert 0 < errors < len(runs) - 1  # both outcomes among the walks


def test_vanishing_overlap_leaves_point_unrephased():
    """Level 1 takes the eigenvector level 0 leaves, and its overlap can
    vanish where level 0's choice is clear (1.414 against 1); that point
    then keeps its phase, as in the loop."""
    # right vectors (1, 0) and (1, 1)/sqrt(2) at t = 0, then (1, 0) and (1, -1)/sqrt(2)
    op_fun = lambda t: np.array([[3.0, -2.0], [0.0, 1.0]] if t == 0.0 else [[2.0, 1.0], [0.0, 1.0]],
                                dtype=complex)
    grid = TimeGrid(0.0, 1.0, 3)
    traj = eigen_trajectory(op_fun, lambda t: I2, grid)
    reference = reference_trajectory(op_fun, lambda t: I2, grid)
    assert traj.overlaps[0, 1] == 0.0
    assert traj.overlaps[0, 0] == pytest.approx(math.sqrt(2.0))
    assert_same_trajectory(traj, reference, 1e-12)


def test_trajectory_needs_two_levels():
    with pytest.raises(ValueError, match=r"needs 2x2 operators, got shape \(3, 3\)"):
        eigen_trajectory(lambda t: np.eye(3, dtype=complex), lambda t: np.eye(3), TimeGrid(0.0, 1.0, 4))


def rotated(theta):
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, -s], [s, c]], dtype=complex)
    return r @ np.diag([1.0, -1.0]).astype(complex) @ r.T


def test_level_crossing_raised_at_same_time_as_reference():
    # eigenvectors jump by 45 degrees at t = 0.55: both overlaps are 1/sqrt(2)
    op_fun = lambda t: rotated(math.pi / 4 if t >= 0.55 else 0.0)
    grid = TimeGrid(0.0, 1.0, 20)
    with pytest.raises(LevelCrossingError) as expected:
        reference_trajectory(op_fun, lambda t: I2, grid)
    with pytest.raises(LevelCrossingError) as err:
        eigen_trajectory(op_fun, lambda t: I2, grid)
    assert str(err.value) == str(expected.value)
    assert "at t=0.55" in str(err.value)


def test_defective_point_named_by_time():
    # a Jordan block at t = 0.5; real eigenvalues before, imaginary after
    op_fun = lambda t: np.array([[0.0, 1.0], [0.5 - t, 0.0]], dtype=complex)
    with pytest.raises(DefectiveMatrixError) as err:
        eigen_trajectory(op_fun, lambda t: I2, TimeGrid(0.0, 1.0, 10))
    assert str(err.value).startswith("eigenvector matrix condition")
    assert "(possible exceptional point) at t=0.5" in str(err.value)
    assert err.value.index == 5


def test_level_crossing_before_defective_point_comes_first():
    def op_fun(t):
        if t >= 0.75:
            return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        return rotated(math.pi / 4 if t >= 0.25 else 0.0)

    with pytest.raises(LevelCrossingError, match="at t=0.25"):
        eigen_trajectory(op_fun, lambda t: I2, TimeGrid(0.0, 1.0, 8))


def test_gauge_alignment_error_names_time():
    # a 30 degree jump at t = 0.5: overlap cos(30deg) = 0.866, no tie
    op_fun = lambda t: rotated(math.pi / 6 if t >= 0.5 else 0.0)
    grid = TimeGrid(0.0, 1.0, 10)
    traj = eigen_trajectory(op_fun, lambda t: I2, grid)
    with pytest.raises(GaugeAlignmentError) as err:
        berry_phase_loop(traj, ParameterPath(), lambda t: I2, lambda t: I2,
                         lambda t: np.zeros((2, 2)))
    assert str(err.value).startswith("minimum consecutive overlap 0.866 below 0.9; refine the grid")
    assert "t=0.5" in str(err.value)


# --------------------------------------------------------------------------
# Propagators
# --------------------------------------------------------------------------


def reference_tdse(h_fun, psi0, grid, metric=None, drift_limit=1e-3):
    """The per-step RK4 stage loop, four scalar H(t) calls per step."""
    psi = np.asarray(psi0, dtype=complex).reshape(-1)
    times = grid.times()
    dt = grid.dt
    out = np.empty((times.shape[0], psi.shape[0]), dtype=complex)
    out[0] = psi

    def rhs(t, state):
        return -1j * (np.asarray(h_fun(t), dtype=complex) @ state)

    norm0 = None
    if metric is not None:
        norm0 = float(np.real(psi.conj() @ np.asarray(metric(times[0])) @ psi))
    for k in range(times.shape[0] - 1):
        t = times[k]
        k1 = rhs(t, psi)
        k2 = rhs(t + 0.5 * dt, psi + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, psi + 0.5 * dt * k2)
        k4 = rhs(t + dt, psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = psi
        if norm0 is not None:
            norm = float(np.real(psi.conj() @ np.asarray(metric(times[k + 1])) @ psi))
            if abs(norm - norm0) > drift_limit * (1.0 + abs(norm0)):
                raise NormDriftError(
                    f"metric norm drifted by {abs(norm - norm0):.3e} at t={times[k + 1]:.6g}; "
                    "use a finer grid"
                )
    return out


def reference_metric_flow(h_fun, rho0, grid):
    """The per-step RK4 stage loop of i rho_dot = H^dag rho - rho H with
    re-symmetrization and a per-step positivity flag."""
    times = grid.times()
    dt = grid.dt
    rho = np.asarray(rho0, dtype=complex)
    values = np.empty((times.shape[0],) + rho.shape, dtype=complex)
    positive = np.empty(times.shape[0], dtype=bool)
    values[0] = rho
    positive[0] = True

    def rhs(t, r):
        h = np.asarray(h_fun(t), dtype=complex)
        return -1j * (h.conj().T @ r - r @ h)

    for k in range(times.shape[0] - 1):
        t = times[k]
        k1 = rhs(t, rho)
        k2 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k2)
        k4 = rhs(t + dt, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        values[k + 1] = rho
        positive[k + 1] = bool(np.all(np.linalg.eigvalsh(rho) > 0.0))
    return values, positive


def assert_round_off_close(values, reference, steps):
    """Within 64 eps per step of the largest entry along the reference."""
    bound = 64.0 * EPS * steps * np.max(np.abs(reference))
    assert np.max(np.abs(values - reference)) <= bound


def driven_matrix(rng, dim):
    """An opaque, non-Hermitian, time-dependent (dim, dim) generator."""
    a, b = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(2))
    hermitian = a + a.conj().T
    return lambda t: hermitian * math.cos(3.0 * t) + 0.2j * b * math.sin(2.0 * t)


SCENARIOS = {"hermitian_map": hermitian_loop, "nonhermitian_map": nonhermitian_drive}


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_tdse_of_scenario_matches_reference_loop(kind):
    sc = SCENARIOS[kind]()
    grid = TimeGrid(0.0, 1.0, 300)
    psi0 = np.array([0.6, 0.8j])
    states = tdse_integrate(sc.hamiltonian, psi0, grid, metric=sc.rho)
    reference = reference_tdse(sc.hamiltonian, psi0, grid, metric=sc.rho)
    assert_round_off_close(states, reference, grid.steps)


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_metric_flow_of_scenario_matches_reference_loop(kind):
    sc = SCENARIOS[kind]()
    grid = TimeGrid(0.0, 1.0, 300)
    flow = metric_ode_solve(sc.hamiltonian, sc.rho(0.0), grid)
    values, positive = reference_metric_flow(sc.hamiltonian, sc.rho(0.0), grid)
    assert_round_off_close(flow.values, values, grid.steps)
    np.testing.assert_array_equal(flow.positive, positive)


@pytest.mark.parametrize("dim", [2, 3])
def test_tdse_of_opaque_callable_matches_reference_loop(dim):
    rng = np.random.default_rng(10 + dim)
    h_fun = driven_matrix(rng, dim)
    grid = TimeGrid(0.0, 2.0, 400)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    states = tdse_integrate(h_fun, psi0, grid)
    assert_round_off_close(states, reference_tdse(h_fun, psi0, grid), grid.steps)


@pytest.mark.parametrize("dim", [2, 3])
def test_metric_flow_of_opaque_callable_matches_reference_loop(dim):
    rng = np.random.default_rng(20 + dim)
    h_fun = driven_matrix(rng, dim)
    grid = TimeGrid(0.0, 1.0, 400)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho0 = a @ a.conj().T + np.eye(dim)
    flow = metric_ode_solve(h_fun, rho0, grid)
    values, positive = reference_metric_flow(h_fun, rho0, grid)
    assert_round_off_close(flow.values, values, grid.steps)
    np.testing.assert_array_equal(flow.positive, positive)


def test_metric_flow_positivity_flags_follow_each_step():
    # a coarse grid on a strong drive: RK4 steps lose positivity, then regain it
    h_fun = lambda t: 8.0 * (math.cos(t) * np.array([[0, 1], [1, 0]]) + 0.3j * np.diag([1, -1]))
    grid = TimeGrid(0.0, 2.0, 10)
    rho0 = np.diag([1.0, 0.2]).astype(complex)
    flow = metric_ode_solve(h_fun, rho0, grid)
    values, positive = reference_metric_flow(h_fun, rho0, grid)
    assert not positive.all() and positive[-1]
    np.testing.assert_array_equal(flow.positive, positive)
    assert_round_off_close(flow.values, values, grid.steps)


def test_propagators_evaluate_h_once_over_half_steps():
    calls = []

    def h_fun(t):
        calls.append(t)
        return mat2(0.0, 1.0, 1.0, 0.5 * t)

    grid = TimeGrid(0.0, 1.0, 50)
    half = np.linspace(0.0, 1.0, 101)
    for propagate in (lambda h: tdse_integrate(h, [1.0, 0.0], grid),
                      lambda h: metric_ode_solve(h, I2, grid).values):
        calls.clear()
        sampled = propagate(lambda t: h_fun(t))
        assert calls == list(half)
        calls.clear()
        whole = propagate(shape_generic(lambda t: h_fun(t)))
        assert len(calls) == 1 and np.array_equal(calls[0], half)
        np.testing.assert_array_equal(whole, sampled)


def test_drift_guard_raises_where_reference_loop_does():
    sc = build_hermitian_map_scenario(1.0, 0.0, 2.0, ScenarioConstants(c1=2.0, c2=1.0, omega=0.5))
    grid = TimeGrid(0.0, 10.0, 20)
    psi0 = np.array([1.0, 0.0])
    with pytest.raises(NormDriftError) as expected:
        reference_tdse(sc.hamiltonian, psi0, grid, metric=sc.rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NormDriftError) as err:
            tdse_integrate(sc.hamiltonian, psi0, grid, metric=sc.rho)
    assert str(err.value) == str(expected.value)
    assert err.value.index == 5
    assert err.value.t == grid.times()[5] == 2.5
    assert "at t=2.5; use a finer grid" in str(err.value)
