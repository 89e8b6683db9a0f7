import math

import numpy as np
import pytest

from conftest import I2, SX
from tdnh.evolution import (
    EigenTrajectory,
    GaugeAlignmentError,
    NonRealEnergyError,
    NormDriftError,
    OpenPathError,
    TimeGrid,
    adiabatic_decompose,
    berry_phase_loop,
    berry_rates,
    closed_form_berry_hermitian_map,
    closed_form_berry_nonhermitian_map,
    dynamical_phase,
    eigen_trajectory,
    geometric_phase,
    hermitian_frame_rates,
    path_closure_residual,
    scenario_eigen_trajectory,
    tdse_integrate,
    wrap_angle,
)
from tdnh.model import (
    ParameterPath,
    ScenarioConstants,
    build_hermitian_map_scenario,
    build_nonhermitian_map_scenario,
)


def mod_2pi_distance(a, b):
    return abs(wrap_angle(a - b))


class TestTimeGrid:
    def test_spacing(self):
        grid = TimeGrid(0.0, 1.0, 4)
        assert grid.dt == 0.25
        assert np.allclose(grid.times(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1)


class TestTdseIntegrate:
    def test_global_phase_rotation(self):
        omega = 2.0
        grid = TimeGrid(0.0, 2.0, 2000)
        psi0 = np.array([1.0, 0.5j])
        states = tdse_integrate(lambda t: -0.5 * omega * I2, psi0, grid)
        expected = np.exp(1j * omega * grid.times()[-1] / 2.0) * psi0
        assert np.linalg.norm(states[-1] - expected) < 1e-10

    def test_rabi_norm_conservation(self):
        grid = TimeGrid(0.0, 10.0, 10_000)
        states = tdse_integrate(lambda t: -SX, np.array([1.0, 0.0]), grid)
        norms = np.linalg.norm(states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_metric_norm_conserved_non_hermitian(self, hermitian_scenario):
        sc = hermitian_scenario
        grid = TimeGrid(0.0, 2.0, 20_000)
        psi0 = np.array([0.6, 0.8], dtype=complex)
        states = tdse_integrate(sc.hamiltonian, psi0, grid, metric=sc.rho)
        times = grid.times()
        norm0 = np.real(psi0.conj() @ sc.rho(0.0) @ psi0)
        worst = max(
            abs(np.real(states[k].conj() @ sc.rho(times[k]) @ states[k]) - norm0)
            for k in range(0, len(times), len(times) // 50)
        )
        assert worst < 1e-8 * (1.0 + abs(norm0))

    def test_drift_guard_trips_on_coarse_grid(self, hermitian_scenario):
        sc = hermitian_scenario
        grid = TimeGrid(0.0, 10.0, 20)
        with pytest.raises(NormDriftError):
            tdse_integrate(sc.hamiltonian, np.array([1.0, 0.0]), grid, metric=sc.rho)

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            tdse_integrate(lambda t: I2, np.zeros(2), TimeGrid(0.0, 1.0, 10))


class TestEigenTrajectory:
    def test_constant_operator(self):
        grid = TimeGrid(0.0, 1.0, 50)
        traj = eigen_trajectory(lambda t: np.diag([2.0, -1.0]).astype(complex),
                                lambda t: I2, grid)
        assert np.allclose(traj.energies, [2.0, -1.0])
        assert np.allclose(traj.right[0], traj.right[-1])
        assert traj.min_overlap > 1 - 1e-12

    def test_broken_regime_energies_stay_real(self, hermitian_scenario):
        # the static classifier is broken along this path, yet the energy
        # operator's instantaneous eigenvalues remain real
        grid = TimeGrid(0.0, 1.0, 1024)
        traj = scenario_eigen_trajectory(hermitian_scenario, grid)
        assert float(np.max(np.abs(traj.energies.imag))) < 1e-10

    def test_nonhermitian_map_energies_closed_form(self, nonhermitian_scenario):
        sc = nonhermitian_scenario
        grid = TimeGrid(0.0, 1.0, 256)
        traj = scenario_eigen_trajectory(sc, grid)
        for k, t in enumerate(grid.times()):
            a = sc.y_coupling(t)
            xr = sc.path.coefficients(t).x_re
            gap = math.sqrt(4.0 * a * a + xr * xr)
            expected = np.array([0.5 * (-sc.constants.omega + gap),
                                 0.5 * (-sc.constants.omega - gap)])
            assert np.allclose(traj.energies[k].real, expected, atol=1e-10)

    def test_level_matching_tie_raises(self):
        # a sudden 45-degree eigenbasis jump leaves both pairings with equal
        # overlap, which must be reported instead of silently picked
        from conftest import SZ
        from tdnh.evolution import LevelCrossingError

        def op(t):
            return np.array(SZ) if t < 0.5 else np.array(SX)

        with pytest.raises(LevelCrossingError):
            eigen_trajectory(op, lambda t: I2, TimeGrid(0.0, 1.0, 10))

    def test_metric_normalization_along_trajectory(self, hermitian_loop_scenario):
        sc = hermitian_loop_scenario
        grid = TimeGrid(0.0, 1.0, 128)
        traj = scenario_eigen_trajectory(sc, grid)
        for k, t in enumerate(grid.times()):
            rho = sc.rho(t)
            for n in range(2):
                psi = traj.right[k][:, n]
                assert np.real(psi.conj() @ rho @ psi) == pytest.approx(1.0, abs=1e-10)


class TestDynamicalPhase:
    def test_constant_energy(self):
        grid = TimeGrid(0.0, 2.0, 64)
        traj = eigen_trajectory(lambda t: np.diag([1.0, -1.0]).astype(complex),
                                lambda t: I2, grid)
        phases = dynamical_phase(traj)
        assert phases[-1, 0] == pytest.approx(-2.0)
        assert phases[-1, 1] == pytest.approx(2.0)

    def test_linear_energy(self):
        grid = TimeGrid(0.0, 1.0, 2000)
        traj = eigen_trajectory(lambda t: np.diag([t, -5.0]).astype(complex),
                                lambda t: I2, grid)
        phases = dynamical_phase(traj)
        assert phases[-1, 0] == pytest.approx(-0.5, abs=1e-9)

    def test_nonhermitian_constants(self, nonhermitian_constant_scenario):
        grid = TimeGrid(0.0, 1.0, 512)
        traj = scenario_eigen_trajectory(nonhermitian_constant_scenario, grid)
        phases = dynamical_phase(traj)
        assert phases[-1, 0] == pytest.approx(-math.sqrt(5.0) / 2.0, abs=1e-10)
        assert phases[-1, 1] == pytest.approx(math.sqrt(5.0) / 2.0, abs=1e-10)

    def test_complex_energies_raise(self):
        grid = TimeGrid(0.0, 1.0, 16)
        traj = eigen_trajectory(lambda t: np.diag([1.0 + 1e-4j, -1.0]).astype(complex),
                                lambda t: I2, grid)
        with pytest.raises(NonRealEnergyError):
            dynamical_phase(traj)


class TestBerryRate:
    def test_hermitian_real_eigenvectors_have_zero_rate(self):
        # real normalized eigenvectors rotating once around a closed loop:
        # <psi|d psi> vanishes, so every rate is 0 up to round-off
        grid = TimeGrid(0.0, 1.0, 64)
        theta = 2.0 * np.pi * grid.times()
        cos, sin = np.cos(theta), np.sin(theta)
        right = np.stack([np.stack([cos, -sin], axis=1), np.stack([sin, cos], axis=1)], axis=1)
        traj = EigenTrajectory(grid, np.tile([1.0 + 0j, -1.0], (grid.n_points, 1)),
                               right.astype(complex), right.astype(complex),
                               np.ones((grid.steps, 2)))
        rates = berry_rates(traj, lambda t: I2, lambda t: I2, lambda t: np.zeros((2, 2)),
                            periodic=True)
        assert rates.shape == (grid.n_points, 2)
        assert np.max(np.abs(rates)) < 1e-13

    def test_component_real_gauge_reproduces_closed_integrand(self):
        # in the gauge where the mapped second component is real positive the
        # pointwise rate equals the closed-form integrand of the diagonal map
        sc = build_hermitian_map_scenario(
            "cos(2*pi*t)", "sin(2*pi*t)", 0.0,
            ScenarioConstants(c1=2.0, c2=1.0), validate_at=(0.1, 0.7),
        )
        grid = TimeGrid(0.0, 1.0, 8192)
        traj = scenario_eigen_trajectory(sc, grid)
        times = grid.times()
        # rephase so that (eta psi)_2 is real positive everywhere
        phases = np.empty((grid.n_points, 2))
        for k, t in enumerate(times):
            eta = sc.eta(t)
            for n in range(2):
                chi = eta @ traj.right[k][:, n]
                phases[k, n] = -np.angle(chi[1])
        gauged = traj.rephased(phases)
        rates = berry_rates(gauged, sc.rho, sc.eta, sc.eta_dot)
        theta_dot = np.empty(grid.n_points)
        for k, t in enumerate(times):
            c = sc.path.coefficients(t)
            dx = -2.0 * math.pi * math.sin(2.0 * math.pi * t)
            dy = 2.0 * math.pi * math.cos(2.0 * math.pi * t)
            theta_dot[k] = 0.5 * (c.x_re * dy - c.y_re * dx) / (c.x_re**2 + c.y_re**2)
        interior = slice(1, -1)
        worst = np.max(np.abs(rates[interior].real - theta_dot[interior, None]))
        assert worst < 1e-5

    def test_matches_hermitian_frame_route(self, hermitian_loop_scenario):
        sc = hermitian_loop_scenario
        grid = TimeGrid(0.0, 1.0, 12288)
        traj = scenario_eigen_trajectory(sc, grid)
        rates = berry_rates(traj, sc.rho, sc.eta, sc.eta_dot, periodic=True)
        rates_chi = hermitian_frame_rates(traj, sc.eta, periodic=True, rho_fun=sc.rho)
        assert np.max(np.abs(rates - rates_chi)) < 1e-7

    def test_imaginary_part_small(self, hermitian_loop_scenario):
        sc = hermitian_loop_scenario
        grid = TimeGrid(0.0, 1.0, 4096)
        traj = scenario_eigen_trajectory(sc, grid)
        rates = berry_rates(traj, sc.rho, sc.eta, sc.eta_dot, periodic=True)
        assert np.max(np.abs(rates.imag)) < 1e-7


class TestBerryLoop:
    def test_unit_circle_gives_pi(self, hermitian_loop_scenario):
        sc = hermitian_loop_scenario
        grid = TimeGrid(0.0, 1.0, 8192)
        traj = scenario_eigen_trajectory(sc, grid)
        loop = berry_phase_loop(traj, sc.path, sc.rho, sc.eta, sc.eta_dot)
        for n in range(2):
            assert mod_2pi_distance(loop.phases[n], math.pi) < 1e-6
        assert loop.max_imag_rate < 1e-7

    def test_non_enclosing_loop_gives_zero(self):
        sc = build_hermitian_map_scenario(
            "2+cos(2*pi*t)", "sin(2*pi*t)", "1.2*sin(2*pi*t)",
            ScenarioConstants(c1=2.0, c2=1.0, omega=0.3), validate_at=(0.2, 0.8),
        )
        grid = TimeGrid(0.0, 1.0, 4096)
        traj = scenario_eigen_trajectory(sc, grid)
        loop = berry_phase_loop(traj, sc.path, sc.rho, sc.eta, sc.eta_dot)
        for n in range(2):
            assert mod_2pi_distance(loop.phases[n], 0.0) < 1e-8

    def test_matches_closed_form_both_scenarios(self, hermitian_loop_scenario):
        sc = hermitian_loop_scenario
        grid = TimeGrid(0.0, 1.0, 8192)
        traj = scenario_eigen_trajectory(sc, grid)
        loop = berry_phase_loop(traj, sc.path, sc.rho, sc.eta, sc.eta_dot)
        cf = closed_form_berry_hermitian_map(sc.path, grid)
        assert cf == pytest.approx(math.pi)
        for n in range(2):
            assert mod_2pi_distance(loop.phases[n], cf) < 1e-6

        sc2 = build_nonhermitian_map_scenario(
            "1.5+0.2*sin(pi*t)", "1+0.2*cos(pi*t)", "0.7+0.1*sin(pi*t)",
            ScenarioConstants(c1=0.8, omega=0.4), validate_at=(0.3, 1.7),
        )
        grid2 = TimeGrid(0.0, 2.0, 8192)
        traj2 = scenario_eigen_trajectory(sc2, grid2)
        loop2 = berry_phase_loop(traj2, sc2.path, sc2.rho, sc2.eta, sc2.eta_dot)
        cf2 = closed_form_berry_nonhermitian_map(sc2, grid2)
        for n in range(2):
            assert mod_2pi_distance(loop2.phases[n], cf2) < 1e-6

    def test_open_path_rejected(self, hermitian_scenario):
        grid = TimeGrid(0.0, 1.0, 64)
        traj = scenario_eigen_trajectory(hermitian_scenario, grid)
        assert path_closure_residual(hermitian_scenario.path, grid) > 1e-10
        with pytest.raises(OpenPathError):
            berry_phase_loop(traj, hermitian_scenario.path, hermitian_scenario.rho,
                             hermitian_scenario.eta, hermitian_scenario.eta_dot)

    def test_gauge_invariance_mod_2pi(self, hermitian_loop_scenario):
        sc = hermitian_loop_scenario
        grid = TimeGrid(0.0, 1.0, 4096)
        traj = scenario_eigen_trajectory(sc, grid)
        base = berry_phase_loop(traj, sc.path, sc.rho, sc.eta, sc.eta_dot)
        times = grid.times()
        rng = np.random.default_rng(17)
        a, b = rng.uniform(0.2, 1.5, size=2)
        theta = np.stack(
            [a * np.sin(2 * np.pi * times), b * (1 - np.cos(2 * np.pi * times))], axis=1
        )  # smooth, theta(0) = theta(T)
        gauged = traj.rephased(theta)
        alt = berry_phase_loop(gauged, sc.path, sc.rho, sc.eta, sc.eta_dot)
        for n in range(2):
            assert mod_2pi_distance(base.phases[n], alt.phases[n]) < 1e-6

    def test_misaligned_trajectory_rejected(self, hermitian_loop_scenario):
        sc = hermitian_loop_scenario
        grid = TimeGrid(0.0, 1.0, 4096)
        traj = scenario_eigen_trajectory(sc, grid)
        bad = type(traj)(traj.grid, traj.energies, traj.right, traj.left,
                         0.5 * traj.overlaps)
        with pytest.raises(GaugeAlignmentError):
            berry_phase_loop(bad, sc.path, sc.rho, sc.eta, sc.eta_dot)


class TestClosedForms:
    def test_static_path_gives_zero(self, hermitian_scenario):
        grid = TimeGrid(0.0, 1.0, 32)
        assert closed_form_berry_hermitian_map(hermitian_scenario.path, grid) == 0.0

    def test_unit_circle(self):
        path = ParameterPath(x_re="cos(2*pi*t)", y_re="sin(2*pi*t)")
        assert closed_form_berry_hermitian_map(path, TimeGrid(0.0, 1.0, 256)) == pytest.approx(
            math.pi
        )

    def test_winding_accumulates(self):
        path = ParameterPath(x_re="cos(4*pi*t)", y_re="sin(4*pi*t)")
        assert closed_form_berry_hermitian_map(path, TimeGrid(0.0, 1.0, 512)) == pytest.approx(
            2.0 * math.pi
        )

    def test_origin_crossing_rejected(self):
        path = ParameterPath(x_re="t", y_re=0.0)
        with pytest.raises(ValueError):
            closed_form_berry_hermitian_map(path, TimeGrid(-1.0, 1.0, 64))


class TestAdiabaticDecomposition:
    def test_constant_operator_coefficients_frozen(self):
        h = np.diag([1.0, -1.0]).astype(complex)
        grid = TimeGrid(0.0, 3.0, 3000)
        traj = eigen_trajectory(lambda t: h, lambda t: I2, grid)
        psi0 = traj.right[0][:, 0]
        states = tdse_integrate(lambda t: h, psi0, grid)
        rates = berry_rates(traj, lambda t: I2, lambda t: I2, lambda t: np.zeros((2, 2)))
        decomp = adiabatic_decompose(states, traj, dynamical_phase(traj),
                                     geometric_phase(rates, grid))
        assert abs(decomp.coefficients[0, 0] - 1.0) < 1e-12
        assert decomp.max_deviation < 1e-9

    def test_deviation_shrinks_with_slower_driving(self):
        # the same completed-path loop traversed at different speeds: the
        # sigma_z drive is the exponent's derivative, so its amplitude must
        # carry the 1/T factor to keep the loop (and the gap) fixed
        deviations = []
        for period in (16.0, 32.0, 64.0):
            w = 2.0 * math.pi / period
            sc = build_hermitian_map_scenario(
                f"1+0.2*cos({w}*t)",
                f"0.2*sin({w}*t)",
                f"{0.5 * w}*cos({w}*t)",
                ScenarioConstants(c1=2.0, c2=1.0),
                validate_at=(0.0, period / 2),
            )
            grid = TimeGrid(0.0, period, int(200 * period))
            traj = scenario_eigen_trajectory(sc, grid)
            psi0 = traj.right[0][:, 0]
            states = tdse_integrate(sc.hamiltonian, psi0, grid, metric=sc.rho)
            rates = berry_rates(traj, sc.rho, sc.eta, sc.eta_dot, periodic=True)
            decomp = adiabatic_decompose(states, traj, dynamical_phase(traj),
                                         geometric_phase(rates, grid))
            deviations.append(decomp.max_deviation)
        assert deviations[2] < deviations[1] < deviations[0]
        assert deviations[2] < 0.05

    def test_fast_driving_is_flagged_non_adiabatic(self):
        # traversing the loop in about one gap time leaves order-one
        # coefficient excursions
        period = 2.0
        w = 2.0 * math.pi / period
        sc = build_hermitian_map_scenario(
            f"1+0.2*cos({w}*t)", f"0.2*sin({w}*t)", f"{0.5 * w}*cos({w}*t)",
            ScenarioConstants(c1=2.0, c2=1.0), validate_at=(0.0, 1.0),
        )
        grid = TimeGrid(0.0, period, 4000)
        traj = scenario_eigen_trajectory(sc, grid)
        psi0 = traj.right[0][:, 0]
        states = tdse_integrate(sc.hamiltonian, psi0, grid, metric=sc.rho)
        rates = berry_rates(traj, sc.rho, sc.eta, sc.eta_dot, periodic=True)
        decomp = adiabatic_decompose(states, traj, dynamical_phase(traj),
                                     geometric_phase(rates, grid))
        assert decomp.max_deviation > 0.1
        # even off the adiabatic limit the total weight is conserved along
        # with the metric norm
        weights = np.sum(np.abs(decomp.coefficients) ** 2, axis=1)
        assert np.max(np.abs(weights - weights[0])) < 1e-7
