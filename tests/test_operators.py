import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import I2, SX, SZ
from tdnh.evolution import TimeGrid
from tdnh.linalg import (
    commutator,
    eig_biorthogonal,
    hermiticity_residual,
    max_abs,
    metric_normalized,
)
from tdnh.model import ScenarioConstants, build_hermitian_map_scenario
from tdnh.operators import (
    CHECKS,
    StaticFrame,
    build_frame,
    build_static_frame,
    c_op_from_eigensystem,
    energy_operator,
    evaluate_checks,
    metric_ode_residual,
    metric_ode_solve,
    quasi_hermiticity_residual,
    scenario_energy_operator,
    unit_determinant,
    verify_reality_conditions,
)

C1, C2 = 2.0, 1.0


def diagonal_map_energy_op_closed_form(sc, t):
    """Independent closed form of the energy operator for the diagonal map."""
    c1, c2 = sc.constants.c1, sc.constants.c2
    d = sc.metric_exponent(t)
    c = sc.path.coefficients(t)
    denom_down = (c1 + c2) ** 2 * np.exp(2 * d) + (c1 - c2) ** 2
    denom_up = 4 * c1 * c2 * np.sinh(d) + 2 * (c1**2 + c2**2) * np.cosh(d)
    upper = -((c1 - c2) ** 2) * (c.x_re - 1j * c.y_re) / denom_down
    lower = -((c1 + c2) ** 2) * np.exp(d) * (c.x_re + 1j * c.y_re) / denom_up
    half = -0.5 * sc.constants.omega
    return np.array([[half, upper], [lower, half]])


def diagonal_map_involution_closed_form(sc, t):
    """The anti-diagonal involution of the diagonal-map frame.

    Overall sign fixed so that the (+1, -1) signature assignment on
    descending energies reproduces it (see the decisions notes: the two
    printed source displays differ by exactly this overall sign).
    """
    c1, c2 = sc.constants.c1, sc.constants.c2
    d = sc.metric_exponent(t)
    c = sc.path.coefficients(t)
    r = math.hypot(c.x_re, c.y_re)
    c12 = (c1 - c2) * np.exp(-d) * r / ((c1 + c2) * (c.x_re + 1j * c.y_re))
    c21 = (c1 + c2) * (c.x_re + 1j * c.y_re) * np.exp(d) / ((c1 - c2) * r)
    return -np.array([[0.0, c12], [c21, 0.0]])


class TestEnergyOperator:
    def test_constant_map_is_identity_shift(self):
        h = np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex)
        assert max_abs(energy_operator(h, 3.0 * I2, np.zeros((2, 2))) - h) == 0.0

    def test_exponential_identity_map(self):
        h = np.zeros((2, 2), dtype=complex)
        out = energy_operator(h, math.e * I2, math.e * I2)
        assert max_abs(out - 1j * I2) < 1e-15

    def test_singular_map_raises(self):
        with pytest.raises(ValueError):
            energy_operator(np.zeros((2, 2)), np.zeros((2, 2)), I2)

    def test_matches_closed_form_along_scenario(self, hermitian_scenario):
        for t in (0.0, 0.45, 1.1):
            computed = scenario_energy_operator(hermitian_scenario, t)
            display = diagonal_map_energy_op_closed_form(hermitian_scenario, t)
            assert max_abs(computed - display) < 1e-9


class TestMetricOdeSolve:
    def test_hermitian_generator_keeps_identity(self):
        grid = TimeGrid(0.0, 1.0, 200)
        flow = metric_ode_solve(lambda t: -0.5 * SX, I2, grid)
        assert flow.all_positive
        assert max_abs(flow.values[-1] - I2) < 1e-12

    def test_matches_analytic_metric(self, hermitian_scenario):
        sc = hermitian_scenario
        grid = TimeGrid(0.0, 1.0, 10_000)
        flow = metric_ode_solve(sc.hamiltonian, sc.rho(0.0), grid)
        worst = max(
            max_abs(flow.values[k] - sc.rho(t)) for k, t in enumerate(grid.times())
        )
        assert worst < 1e-6
        assert flow.all_positive

    def test_diagonal_structure_preserved(self):
        # purely imaginary z drive: both diagonal entries obey scalar ODEs
        # r' = +-z_im * r and the off-diagonal stays zero
        z_im = 0.8

        def h(t):
            return np.array([[-0.5j * z_im, 0.0], [0.0, 0.5j * z_im]])

        grid = TimeGrid(0.0, 1.0, 500)
        rho0 = np.diag([2.0, 3.0]).astype(complex)
        flow = metric_ode_solve(h, rho0, grid)

        # scalar RK4 oracle for the diagonal entries
        def scalar_rk4(rate, y0):
            y, dt = y0, grid.dt
            for _ in range(grid.steps):
                k1 = rate * y
                k2 = rate * (y + 0.5 * dt * k1)
                k3 = rate * (y + 0.5 * dt * k2)
                k4 = rate * (y + dt * k3)
                y += (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            return y

        assert max_abs(flow.values[:, 0, 1]) == 0.0
        assert max_abs(flow.values[:, 1, 0]) == 0.0
        assert flow.values[-1, 0, 0].real == pytest.approx(scalar_rk4(z_im, 2.0), rel=1e-12)
        assert flow.values[-1, 1, 1].real == pytest.approx(scalar_rk4(-z_im, 3.0), rel=1e-12)

    def test_rejects_non_positive_start(self):
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            metric_ode_solve(lambda t: -0.5 * SX, np.diag([1.0, -1.0]), grid)


class TestParityMetricInvolution:
    """build_frame's parity product: the static parity times the unit-determinant metric."""

    def test_identity_metric(self):
        # c1 = 1, c2 = 0 and no z drive give rho = I; x_re = 1, y_re = 0 the parity sigma_x
        sc = build_hermitian_map_scenario(1.0, 0.0, 0.0, ScenarioConstants(c1=1.0, c2=0.0))
        assert max_abs(build_frame(sc, 0.3).c_op_hamiltonian - SX) == 0.0

    def test_diagonal_map_product_closed_form(self):
        # unit metric determinant, pure x coupling: the product has the
        # detuned metric entries on the anti-diagonal
        sc = build_hermitian_map_scenario(
            1.0, 0.0, 1.0, ScenarioConstants(c1=1.25, c2=0.75)
        )
        c1, c2 = sc.constants.c1, sc.constants.c2
        assert c1**2 - c2**2 == pytest.approx(1.0)  # det rho = 1 already
        for t in (0.0, 0.6):
            d = sc.metric_exponent(t)
            product = build_frame(sc, t).c_op_hamiltonian
            expected = np.array(
                [[0.0, (c1 - c2) ** 2 * np.exp(-d)], [(c1 + c2) ** 2 * np.exp(d), 0.0]]
            )
            assert max_abs(product - expected) < 1e-12
            assert max_abs(product @ product - I2) < 1e-12

    def test_evolution_equation_with_flowing_metric(self, hermitian_scenario):
        # i dC/dt = [H, C] when the unit-determinant metric solves the metric
        # ODE and the parity is constant
        sc = hermitian_scenario

        def c_hat(t):
            return SX @ unit_determinant(sc.rho(t))

        from tdnh.linalg import operator_time_derivative

        for t in (0.2, 0.9):
            c_dot = operator_time_derivative(c_hat, t)
            resid = max_abs(1j * c_dot - commutator(sc.hamiltonian(t), c_hat(t)))
            assert resid < 1e-6

    def test_spectral_expansion_equality_in_static_limit(self):
        # without the z drive the metric is constant, the product commutes
        # with the constant Hamiltonian and equals a signature expansion in
        # its eigensystem
        sc = build_hermitian_map_scenario(1.0, 0.0, 0.0, ScenarioConstants(c1=2.0, c2=1.0))
        t = 0.4
        product = build_frame(sc, t).c_op_hamiltonian
        h = sc.hamiltonian(t)
        assert max_abs(commutator(h, product)) < 1e-12
        es = eig_biorthogonal(h, ordering="real_desc")
        expansion = c_op_from_eigensystem(es, (-1, 1))
        assert max_abs(product - expansion) < 1e-12

    def test_spectral_expansion_fails_once_driven(self):
        # with the z drive on, the flowing product obeys i dC/dt = [H, C]
        # but is no longer a spectral function of the Hamiltonian: no
        # signature expansion in H's eigensystem reproduces it
        sc = build_hermitian_map_scenario(1.0, 0.0, 2.0, ScenarioConstants(c1=2.0, c2=1.0))
        t = 0.4
        product = build_frame(sc, t).c_op_hamiltonian
        h = sc.hamiltonian(t)
        assert max_abs(commutator(h, product)) > 1.0
        es = eig_biorthogonal(h, ordering="real_desc")
        mismatch = min(
            max_abs(product - c_op_from_eigensystem(es, signs))
            for signs in ((1, -1), (-1, 1), (1, 1), (-1, -1))
        )
        assert mismatch > 1.0


class TestEigensystemInvolution:
    def test_diagonal_operator(self):
        es = eig_biorthogonal(np.diag([1.0, -1.0]), ordering="real_desc")
        assert max_abs(c_op_from_eigensystem(es, (1, -1)) - SZ) < 1e-14

    def test_all_plus_gives_identity(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        es = eig_biorthogonal(m)
        assert max_abs(c_op_from_eigensystem(es, (1, 1)) - I2) < 1e-12

    def test_matches_diagonal_map_closed_form(self, hermitian_scenario):
        for t in (0.0, 0.7):
            frame = build_frame(hermitian_scenario, t)
            display = diagonal_map_involution_closed_form(hermitian_scenario, t)
            assert max_abs(frame.c_op - display) < 1e-8

    def test_signature_validation(self):
        es = eig_biorthogonal(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            c_op_from_eigensystem(es, (1, 2))
        with pytest.raises(ValueError):
            c_op_from_eigensystem(es, (1,))


class TestIntertwiner:
    def test_identity_metric(self):
        # c1 = 1, c2 = 0 and no z drive give rho = I: the intertwiner is C itself
        sc = build_hermitian_map_scenario(1.0, 0.0, 0.0, ScenarioConstants(c1=1.0, c2=0.0))
        frame = build_frame(sc, 0.3)
        assert max_abs(frame.metric - I2) == 0.0
        assert max_abs(frame.intertwiner - frame.c_op) == 0.0
        assert np.allclose(np.linalg.eigvalsh(frame.intertwiner), [-1.0, 1.0])

    def test_diagonal_map_spectrum(self, hermitian_scenario):
        frame = build_frame(hermitian_scenario, 0.4)
        eigs = np.linalg.eigvalsh(frame.intertwiner)
        expected = C1**2 - C2**2
        assert np.allclose(sorted(eigs), [-expected, expected], rtol=1e-9)
        positive = bool(np.all(eigs > 0))
        assert not positive  # indefinite, hence not a metric

    def test_nonhermitian_map_determinant(self, nonhermitian_scenario):
        c1 = nonhermitian_scenario.constants.c1
        for t in (0.0, 0.37):
            frame = build_frame(nonhermitian_scenario, t)
            det = np.linalg.det(frame.intertwiner).real
            assert det == pytest.approx(-16.0 * c1**4, rel=1e-9)

    def test_inconsistent_pair_fails(self, hermitian_scenario):
        # a metric and involution from different frames give a non-Hermitian
        # intertwiner: a failing condition (iii), not an error
        frame = build_frame(hermitian_scenario, 0.4)
        report = verify_reality_conditions(replace(frame, intertwiner=np.diag([1.0, 2.0]) @ SX))
        assert not report.check("intertwiner_hermitian").passed
        assert report.reality_guarantee_active is False


class TestFrameAlgebra:
    @pytest.mark.parametrize("fixture_name", ["hermitian_loop_scenario", "nonhermitian_scenario"])
    def test_involution_identities_along_grid(self, fixture_name, request):
        sc = request.getfixturevalue(fixture_name)
        for t in np.linspace(0.03, 0.97, 9):
            frame = build_frame(sc, t)
            assert max_abs(frame.c_op @ frame.c_op - I2) < 1e-9
            assert max_abs(commutator(frame.c_op, frame.energy_op)) < 1e-9
            assert hermiticity_residual(frame.intertwiner) < 1e-9
            assert max_abs(np.linalg.solve(frame.metric, frame.intertwiner) - frame.c_op) < 1e-9

    def test_metric_orthonormality(self, hermitian_loop_scenario):
        for t in (0.1, 0.8):
            frame = build_frame(hermitian_loop_scenario, t)
            gram = frame.eigen.right.conj().T @ frame.metric @ frame.eigen.right
            assert max_abs(gram - I2) < 1e-9

    def test_intertwiner_squared_with_unit_det_constants(self):
        # P^2 = I holds for the particular constants c1=1, c2=0, not generally
        sc = build_hermitian_map_scenario(1.0, 0.0, 1.0, ScenarioConstants(c1=1.0, c2=0.0))
        frame = build_frame(sc, 0.5)
        assert max_abs(frame.intertwiner @ frame.intertwiner - I2) < 1e-9
        generic = build_frame(build_hermitian_map_scenario(
            1.0, 0.0, 1.0, ScenarioConstants(c1=2.0, c2=1.0)), 0.5)
        assert max_abs(generic.intertwiner @ generic.intertwiner - I2) > 1.0

    def test_quasi_hermiticity_residuals(self, hermitian_loop_scenario, nonhermitian_scenario):
        for sc in (hermitian_loop_scenario, nonhermitian_scenario):
            for t in (0.11, 0.62):
                h_energy = scenario_energy_operator(sc, t)
                assert quasi_hermiticity_residual(h_energy, sc.rho(t)) < 1e-7
                assert metric_ode_residual(sc.hamiltonian, sc.rho, t) < 1e-7

    def test_hermitian_trivial_case(self):
        assert quasi_hermiticity_residual(SX, I2) == 0.0


class TestRealityConditions:
    def test_diagonal_map_passes_with_unit_alpha(self, hermitian_scenario):
        frame = build_frame(hermitian_scenario, 0.6)
        report = verify_reality_conditions(frame)
        assert report.passed
        assert report.reality_guarantee_active
        # alpha follows the signature pattern exactly for normalized frames
        p = frame.intertwiner
        for n, sign in enumerate(frame.signatures):
            mapped = p @ frame.eigen.right[:, n]
            assert np.linalg.norm(mapped - sign * frame.eigen.left[:, n]) < 1e-9

    def test_nonhermitian_map_passes(self, nonhermitian_scenario):
        frame = build_frame(nonhermitian_scenario, 0.37)
        report = verify_reality_conditions(frame)
        assert report.passed
        assert report.check("energy_reality").residual < 1e-10

    def test_negative_control_fails_vector_map(self, hermitian_scenario):
        frame = build_frame(hermitian_scenario, 0.6)
        report = verify_reality_conditions(frame, use_hamiltonian=True)
        assert not report.passed
        assert report.check("reality_vector_map").residual >= 1e-2
        # conditions (i) and (iii) still hold for the Hamiltonian here
        assert report.check("reality_intertwining").passed
        assert report.check("intertwiner_hermitian").passed
        assert not report.reality_guarantee_active

    def test_static_hermitian_identity_frame(self):
        # Hermitian operator, identity map: everything trivially real with
        # alpha = +1 when all signatures are +1
        from tdnh.operators import OperatorFrame

        h = SX.astype(complex)
        eigen = metric_normalized(eig_biorthogonal(h, ordering="real_desc"), I2)
        frame = OperatorFrame(
            t=0.0, hamiltonian=h, energy_op=h, dyson=np.array(I2), metric=np.array(I2),
            eigen=eigen, signatures=(1, 1),
            c_op=c_op_from_eigensystem(eigen, (1, 1)),
            intertwiner=np.array(I2),
        )
        report = verify_reality_conditions(frame)
        assert report.passed
        for n in range(2):
            mapped = frame.intertwiner @ eigen.right[:, n]
            alpha = eigen.left[:, n].conj() @ mapped
            assert alpha.real == pytest.approx(1.0, abs=1e-12)
            assert abs(alpha.imag) < 1e-12


class TestRealityPropertyRandomized:
    def test_reality_follows_conditions_on_random_paths(self):
        # randomized admissible drives, including strongly broken static
        # regimes: whenever the three conditions hold, the energies are real
        rng = np.random.default_rng(2024)
        for _ in range(25):
            c1 = rng.uniform(0.6, 2.5)
            c2 = rng.uniform(-0.5, 0.5) * c1
            sc = build_hermitian_map_scenario(
                rng.uniform(0.4, 1.5),
                rng.uniform(-1.0, 1.0),
                rng.uniform(-2.5, 2.5),
                ScenarioConstants(c1=c1, c2=c2, omega=rng.uniform(-1.0, 1.0)),
                validate_at=(0.0, 0.5, 1.0),
            )
            t = rng.uniform(0.0, 1.0)
            frame = build_frame(sc, t)
            report = verify_reality_conditions(frame)
            if (report.reality_guarantee_active
                    and report.check("reality_alpha_imag").residual <= 1e-9):
                assert report.check("energy_reality").residual <= 1e-8


class TestCheckTable:
    def test_names_are_the_tolerance_names(self):
        from tdnh.tolerances import DEFAULTS

        # every tolerance names one check, and every check is a table entry
        assert set(CHECKS) == set(DEFAULTS)

    def test_order_is_the_report_order(self):
        from tdnh.cli import MAPPED_CHECKS, STATIC_CHECKS

        assert MAPPED_CHECKS == (
            "dyson_residual", "h_hermitian", "metric_positive", "quasi_hermiticity",
            "metric_ode_residual", "metric_orthonormality", "c_op_involution",
            "c_op_commutes_energy", "intertwiner_hermitian", "intertwiner_factorization",
            "intertwiner_not_positive", "reality_intertwining", "reality_vector_map",
            "reality_alpha_imag", "energy_reality", "c_hamiltonian_involution",
            "c_hamiltonian_evolution", "berry_imag_rate", "berry_hermitian_match",
            "berry_closed_form",
        )
        assert STATIC_CHECKS == ("static_constraint", "parity_involution",
                                 "parity_pseudo_hermiticity", "static_energy_closed_form")
        assert tuple(CHECKS) == MAPPED_CHECKS + STATIC_CHECKS

    @pytest.mark.parametrize("times", [0.6, np.linspace(0.03, 0.97, 9)])
    def test_phase_checks_skip_without_a_trajectory(self, hermitian_loop_scenario, times):
        names = ("berry_imag_rate", "berry_hermitian_match", "berry_closed_form")
        report = evaluate_checks(build_frame(hermitian_loop_scenario, times), names)
        assert [c.name for c in report.checks] == list(names)
        for c in report.checks:
            assert (c.verdict, c.note, c.residual) == ("SKIP", "frame has no eigen-trajectory", 0.0)
            assert np.shape(c.values) == np.shape(times)

    @pytest.mark.parametrize("fixture_name", ["hermitian_loop_scenario", "nonhermitian_scenario",
                                              "hermitian_scenario"])
    @pytest.mark.parametrize("use_hamiltonian", [False, True])
    def test_stacked_frame_matches_single_times(self, fixture_name, use_hamiltonian, request):
        sc = request.getfixturevalue(fixture_name)
        times = np.linspace(0.03, 0.97, 9)
        stacked = verify_reality_conditions(build_frame(sc, times), use_hamiltonian=use_hamiltonian)
        singles = [verify_reality_conditions(build_frame(sc, float(t)),
                                             use_hamiltonian=use_hamiltonian) for t in times]
        assert [c.name for c in stacked.checks] == [c.name for c in singles[0].checks]
        for check in stacked.checks:
            single = np.array([r.check(check.name).residual for r in singles])
            assert check.values.shape == times.shape
            np.testing.assert_allclose(check.values, single, rtol=1e-12, atol=1e-13)
            assert check.residual == np.max(check.values)
        assert stacked.reality_guarantee_active == all(r.reality_guarantee_active for r in singles)

    def test_skipped_checks_name_the_reason(self, nonhermitian_scenario, hermitian_loop_scenario):
        names = ("c_hamiltonian_involution", "c_hamiltonian_evolution")
        times = np.linspace(0.0, 1.0, 5)
        off = evaluate_checks(build_frame(nonhermitian_scenario, times), names)
        assert [c.note for c in off.checks] == ["path off the static-symmetry surface"] * 2
        assert all(c.skipped and not np.any(c.values) for c in off.checks)
        varying = evaluate_checks(build_frame(hermitian_loop_scenario, times), names)
        assert varying.check("c_hamiltonian_involution").passed
        assert varying.check("c_hamiltonian_evolution").note == "parity varies along the path"
        single = evaluate_checks(build_frame(hermitian_loop_scenario, 0.3), names)
        assert single.check("c_hamiltonian_evolution").note == "parity constancy needs a time grid"

    def test_static_frame_checks(self):
        from tdnh.model import ParameterPath

        path = ParameterPath(x_re=1.0, x_im=-0.2, y_re=0.5, y_im=0.4, z_im=0.6)
        times = np.linspace(0.0, 1.0, 4)
        names = [n for n, (kind, _) in CHECKS.items() if kind is StaticFrame]
        stacked = evaluate_checks(build_static_frame(path, times), names)
        single = evaluate_checks(build_static_frame(path, 0.5), names)
        assert stacked.passed and single.passed
        for check in stacked.checks:
            assert check.values.shape == times.shape
            assert check.residual == pytest.approx(single.check(check.name).residual, abs=1e-15)
