import math
import re

import numpy as np
import pytest

from conftest import I2, SX, SY, SZ
from tdnh.linalg import hermiticity_residual, max_abs
from tdnh.model import (
    ConstraintError,
    ParameterPath,
    ScenarioConstants,
    ScenarioValidationError,
    adaptive_simpson,
    build_hermitian_map_scenario,
    build_nonhermitian_map_scenario,
    discriminant,
    dyson_residual,
    hamiltonian,
    static_energies,
    static_parity,
)


class TestHamiltonian:
    def test_identity_shift_only(self):
        path = ParameterPath(omega=2.0)
        assert max_abs(hamiltonian(path, 0.0) + I2) == 0.0

    def test_x_drive(self):
        path = ParameterPath(x_re=2.0)
        assert max_abs(hamiltonian(path, 0.0) + SX) == 0.0

    def test_imaginary_z_drive_is_non_hermitian(self):
        path = ParameterPath(z_im=2.0)
        h = hamiltonian(path, 0.0)
        assert max_abs(h + 1j * SZ) == 0.0
        assert hermiticity_residual(h) > 0.0

    def test_time_dependence_through_expressions(self):
        path = ParameterPath(x_re="2*t")
        assert max_abs(hamiltonian(path, 1.5) + 1.5 * SX) < 1e-15


class TestDiscriminant:
    def test_symmetric(self):
        value, regime = discriminant(ParameterPath(x_re=1.0), 0.0)
        assert value == 1.0
        assert regime == "symmetric"

    def test_broken(self):
        value, regime = discriminant(ParameterPath(x_re=1.0, z_im=2.0), 0.0)
        assert value == -3.0
        assert regime == "broken"

    def test_exceptional(self):
        value, regime = discriminant(ParameterPath(x_re=1.0, z_im=1.0), 0.0)
        assert value == 0.0
        assert regime == "exceptional"

    def test_constraint_violation_raises(self):
        with pytest.raises(ConstraintError):
            discriminant(ParameterPath(x_re=1.0, x_im=0.5), 0.0)
        with pytest.raises(ConstraintError):
            discriminant(ParameterPath(x_re=1.0, z_re=0.1), 0.0)

    def test_zero_x_re_raises(self):
        with pytest.raises(ConstraintError):
            discriminant(ParameterPath(x_re=0.0, y_re=1.0), 0.0)


def constrained_random_path(rng):
    x_re = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
    y_re = rng.uniform(-1.5, 1.5)
    y_im = rng.uniform(-1.5, 1.5)
    z_im = rng.uniform(-1.5, 1.5)
    return ParameterPath(
        omega=rng.uniform(-1.0, 1.0),
        x_re=x_re,
        x_im=-y_re * y_im / x_re,
        y_re=y_re,
        y_im=y_im,
        z_im=z_im,
    )


class TestStaticEnergies:
    def test_pure_x_drive(self):
        e_plus, e_minus = static_energies(ParameterPath(x_re=1.0), 0.0)
        assert e_plus == pytest.approx(0.5)
        assert e_minus == pytest.approx(-0.5)

    def test_broken_conjugate_pair(self):
        e_plus, e_minus = static_energies(ParameterPath(x_re=1.0, z_im=2.0), 0.0)
        assert e_plus == pytest.approx(1j * math.sqrt(3) / 2)
        assert e_minus == pytest.approx(-1j * math.sqrt(3) / 2)

    def test_random_constrained_samples_match_eigensolver(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            path = constrained_random_path(rng)
            a = static_energies(path, 0.0)
            b = np.linalg.eigvals(hamiltonian(path, 0.0))
            straight = max(abs(a[0] - b[0]), abs(a[1] - b[1]))
            swapped = max(abs(a[0] - b[1]), abs(a[1] - b[0]))
            assert min(straight, swapped) < 1e-10

    def test_regime_matches_spectrum_character(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            path = constrained_random_path(rng)
            value, regime = discriminant(path, 0.0)
            eigs = np.linalg.eigvals(hamiltonian(path, 0.0))
            if regime == "symmetric":
                assert max_abs(eigs.imag) < 1e-10
                assert abs(eigs[0] - eigs[1]) > 1e-10
            elif regime == "broken":
                assert max_abs(eigs.imag) > 1e-10
                assert abs(eigs[0] - np.conj(eigs[1])) < 1e-8


class TestStaticParity:
    def test_pure_x_gives_sigma_x(self):
        assert max_abs(static_parity(ParameterPath(x_re=1.0), 0.0) - SX) == 0.0

    def test_pure_y_gives_sigma_y(self):
        assert max_abs(static_parity(ParameterPath(y_re=1.0), 0.0) - SY) < 1e-15

    def test_intertwines_hamiltonian_with_adjoint(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            path = constrained_random_path(rng)
            p = static_parity(path, 0.0)
            h = hamiltonian(path, 0.0)
            assert max_abs(p @ p - I2) < 1e-14
            assert max_abs(p @ h - h.conj().T @ p) < 1e-10

    def test_undefined_without_real_couplings(self):
        with pytest.raises(ConstraintError):
            static_parity(ParameterPath(z_im=1.0), 0.0)


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        assert adaptive_simpson(lambda s: s * s, 0.0, 2.0) == pytest.approx(8.0 / 3.0)

    def test_oscillatory(self):
        out = adaptive_simpson(lambda s: math.cos(7.0 * s), 0.0, 1.3, 1e-12)
        assert out == pytest.approx(math.sin(7.0 * 1.3) / 7.0, abs=1e-11)

    def test_empty_interval(self):
        assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0


def test_gauss_table_is_leggauss_bit_for_bit():
    from tdnh import model

    nodes, weights = np.polynomial.legendre.leggauss(16)
    np.testing.assert_array_equal(model._GAUSS_NODES.view(np.int64), nodes.view(np.int64))
    np.testing.assert_array_equal(model._GAUSS_WEIGHTS.view(np.int64), weights.view(np.int64))


class TestHermitianMapScenario:
    def test_identity_map_limit(self):
        # no z drive and c2 = 0: the map is a constant multiple of the identity,
        # the Hamiltonian is already Hermitian and equals the mapped one
        sc = build_hermitian_map_scenario(1.0, 0.5, 0.0, ScenarioConstants(c1=1.0, c2=0.0))
        t = 0.4
        assert max_abs(sc.eta(t) - I2) == 0.0
        c = sc.path.coefficients(t)
        assert c.y_im == 0.0
        assert c.x_im == 0.0
        h = sc.hamiltonian(t)
        assert hermiticity_residual(h) < 1e-15
        assert max_abs(h - sc.hermitian_hamiltonian(t)) < 1e-15

    def test_metric_closed_form_constant_drive(self, hermitian_scenario):
        sc = hermitian_scenario
        c1, c2 = 2.0, 1.0
        for t in (0.0, 0.7, 1.3):
            expected = np.diag([(c1 + c2) ** 2 * np.exp(2.0 * t),
                                (c1 - c2) ** 2 * np.exp(-2.0 * t)])
            assert max_abs(sc.rho(t) - expected) < 1e-10 * np.exp(2.0 * t)
            det = np.linalg.det(sc.rho(t)).real
            assert det == pytest.approx((c1**2 - c2**2) ** 2, rel=1e-12)

    def test_substitution_certificate(self):
        sc = build_hermitian_map_scenario(1.0, 0.0, 1.0, ScenarioConstants(c1=2.0, c2=1.0))
        assert dyson_residual(sc, 0.0) < 1e-8

    def test_mapped_hamiltonian_is_hermitian(self, hermitian_loop_scenario):
        for t in np.linspace(0.0, 1.0, 13):
            assert hermiticity_residual(hermitian_loop_scenario.hermitian_hamiltonian(t)) < 1e-12

    def test_dyson_residual_time_dependent_drive(self, hermitian_loop_scenario):
        for t in np.linspace(0.05, 0.95, 7):
            assert dyson_residual(hermitian_loop_scenario, t) < 1e-7

    def test_exponent_quadrature_against_closed_form(self):
        sc = build_hermitian_map_scenario(
            1.0, 0.0, "cos(2*pi*t)", ScenarioConstants(c1=2.0, c2=1.0),
            validate_at=(0.1, 0.4),
        )
        for t in (0.13, 0.42, 0.9, 2.3):
            expected = math.sin(2 * math.pi * t) / (2 * math.pi)
            assert sc.metric_exponent(t) == pytest.approx(expected, abs=1e-9)

    def test_float_queries_beyond_the_first_converge(self):
        # after a query at 3, a query at 5.5 needs the panels out to it
        sc = build_hermitian_map_scenario(
            1.0, 0.0, "sin(2*pi*t)", ScenarioConstants(c1=2.0, c2=1.0),
        )
        drive = lambda s: math.sin(2 * math.pi * s)
        for t in (3.0, 5.5):
            assert sc.metric_exponent(t) == pytest.approx(
                adaptive_simpson(drive, 0.0, t), abs=1e-9)

    def test_divergent_drive_names_the_quadrature(self):
        sc = build_hermitian_map_scenario(
            1.0, 0.0, "1/(t-0.3)^2", ScenarioConstants(c1=2.0, c2=1.0), validate_at=None,
        )
        with pytest.raises(ConstraintError, match="quadrature failed to converge on") as info:
            sc.metric_exponent(np.linspace(0.0, 1.0, 11))
        lo, hi = map(float, re.search(r"\[(\S+), (\S+)\]", str(info.value)).groups())
        assert lo <= 0.3 <= hi

    def test_too_distant_query_raises_before_evaluating(self):
        calls = []

        def drive(t):
            calls.append(t)
            return math.sin(t)

        sc = build_hermitian_map_scenario(
            1.0, 0.0, drive, ScenarioConstants(c1=2.0, c2=1.0), validate_at=None,
        )
        with pytest.raises(ConstraintError,
                           match=r"quadrature failed to converge on \[0\.0, 1000000\.0\] "
                                 r"\(tolerance 1\.0e-10\)"):
            sc.metric_exponent(1e6)
        assert calls == []

    def test_overflowing_certificate_raises_no_warning(self):
        # exp(d/2) overflows at t=1, so the vector certificate's inverse
        # fails and the probe is replayed on its own
        with pytest.raises(np.linalg.LinAlgError):
            build_hermitian_map_scenario(
                1.0, 0.0, "8000*t^4", ScenarioConstants(c1=2.0, c2=1.0),
                validate_at=(1.0,),
            )

    def test_derivative_of_map_is_analytic(self, hermitian_scenario):
        from tdnh.linalg import operator_time_derivative

        for t in (0.0, 0.6):
            fd = operator_time_derivative(hermitian_scenario.eta, t)
            assert max_abs(fd - hermitian_scenario.eta_dot(t)) < 1e-8

    def test_degenerate_constants_rejected(self):
        with pytest.raises(ConstraintError):
            build_hermitian_map_scenario(1.0, 0.0, 1.0, ScenarioConstants(c1=1.0, c2=1.0))

    def test_certificate_reports_first_failure_before_overflow(self):
        # exp(d/2) overflows from t=0.5 on; the probe at t=0 already fails
        # and is reported, with no numerical warning from the later probes
        with pytest.raises(ScenarioValidationError, match="at t=0.0: residual"):
            build_hermitian_map_scenario(1.0, 0.0, 3000.0, ScenarioConstants(c1=2.0, c2=1.0))

    def test_path_crossing_x_re_zero_is_fine(self, hermitian_loop_scenario):
        # the derived x_im = 2 y_re g has no division by x_re; the loop crosses
        # x_re = 0 and every coefficient stays finite
        c = hermitian_loop_scenario.path.coefficients(0.25)  # x_re = cos(pi/2) = 0
        assert abs(c.x_re) < 1e-12
        assert math.isfinite(c.x_im) and math.isfinite(c.y_im)

    def test_static_constraints_hold_along_path(self, hermitian_loop_scenario):
        from tdnh.model import static_constraint_residual

        for t in np.linspace(0.0, 1.0, 11):
            assert static_constraint_residual(hermitian_loop_scenario.path, t) < 1e-12

    def test_broken_regime_along_path(self, hermitian_scenario):
        value, regime = discriminant(hermitian_scenario.path, 0.8)
        assert regime == "broken"
        assert value < -3.0


class TestNonHermitianMapScenario:
    def test_constant_coefficients_worked_example(self, nonhermitian_constant_scenario):
        sc = nonhermitian_constant_scenario
        t = 0.3
        assert sc.y_coupling(t) == pytest.approx(1.0)
        c = sc.path.coefficients(t)
        assert c.y_re == pytest.approx(-3.0)
        assert c.x_im == pytest.approx(2.0)
        assert c.z_re == pytest.approx(1.0)
        eigs = sorted(np.linalg.eigvals(sc.hermitian_hamiltonian(t)).real)
        assert eigs[1] == pytest.approx(0.5 * math.sqrt(5.0), rel=1e-12)
        assert eigs[0] == pytest.approx(-0.5 * math.sqrt(5.0), rel=1e-12)

    def test_metric_is_adjoint_product(self, nonhermitian_scenario):
        sc = nonhermitian_scenario
        for t in (0.0, 0.37, 0.8):
            eta = sc.eta(t)
            assert max_abs(sc.rho(t) - eta.conj().T @ eta) < 1e-12

    def test_metric_eigenvalues_closed_form(self, nonhermitian_scenario):
        sc = nonhermitian_scenario
        c1 = sc.constants.c1
        for t in (0.1, 0.52):
            xr = sc.path.coefficients(t).x_re
            yi = sc.path.coefficients(t).y_im
            root = math.sqrt(yi**2 * xr**8 * (yi**2 + 4 * xr**2))
            lam = [
                2 * c1**2 * (yi**2 * xr**4 + 2 * xr**6 + s * root) / xr**6
                for s in (-1.0, 1.0)
            ]
            direct = np.linalg.eigvalsh(sc.rho(t))
            assert np.allclose(direct, sorted(lam), rtol=1e-9)
            assert direct[0] > 0.0

    def test_dyson_residual_time_dependent_ratio(self, nonhermitian_scenario):
        # the ratio y_im/x_re varies, so the map itself is time dependent;
        # the substitution certificate must still vanish
        for t in (0.0, 0.21, 0.6, 0.93):
            assert dyson_residual(nonhermitian_scenario, t) < 1e-8

    def test_mapped_hamiltonian_hermitian(self, nonhermitian_scenario):
        for t in np.linspace(0.0, 1.0, 9):
            assert hermiticity_residual(nonhermitian_scenario.hermitian_hamiltonian(t)) == 0.0

    def test_zero_y_im_rejected(self):
        with pytest.raises(ConstraintError):
            build_nonhermitian_map_scenario(1.0, 0.0, 1.0, ScenarioConstants(c1=1.0))

    def test_zero_c1_rejected(self):
        with pytest.raises(ConstraintError):
            build_nonhermitian_map_scenario(1.0, 1.0, 1.0, ScenarioConstants(c1=0.0))

    def test_validation_failure_is_loud(self):
        # an inconsistent scenario (tampered mapped Hamiltonian) must fail its
        # substitution check
        sc = build_nonhermitian_map_scenario(1.0, 1.0, 1.0, ScenarioConstants(c1=0.5),
                                             validate_at=None)
        broken = type(sc)(
            kind=sc.kind,
            constants=sc.constants,
            path=sc.path,
            eta=sc.eta,
            eta_dot=sc.eta_dot,
            rho=sc.rho,
            hermitian_hamiltonian=lambda t: sc.hermitian_hamiltonian(t) + 0.01 * SX,
            y_coupling=sc.y_coupling,
        )
        with pytest.raises(ScenarioValidationError):
            from tdnh.model import _validate

            _validate(broken, (0.0, 0.5))

    def test_certificate_is_one_vector_call(self, monkeypatch):
        from tdnh import model

        shapes = []
        original = model.dyson_residual

        def counted(scenario, t, **kwargs):
            shapes.append(np.shape(t))
            return original(scenario, t, **kwargs)

        monkeypatch.setattr(model, "dyson_residual", counted)
        build_hermitian_map_scenario("cos(2*pi*t)", "sin(2*pi*t)", "1.2*sin(2*pi*t)",
                                     ScenarioConstants(c1=2.0, c2=1.0),
                                     validate_at=(0.0, 0.3, 0.6))
        build_nonhermitian_map_scenario(1.0, 1.0, 1.0, ScenarioConstants(c1=0.5))
        assert shapes == [(3,), (5,)]


class TestScenarioInvariants:
    def test_dyson_equation_both_scenarios(self, hermitian_loop_scenario, nonhermitian_scenario):
        for sc in (hermitian_loop_scenario, nonhermitian_scenario):
            for t in np.linspace(0.07, 0.91, 5):
                assert dyson_residual(sc, t) < 1e-7
                assert hermiticity_residual(sc.hermitian_hamiltonian(t)) < 1e-9
