"""Defect injection: each defect of a scenario must flip the checks that
can see it, and only those.

The three mapped shipped configs run at 2001 points.  Each defect is
built with ``dataclasses.replace`` on the built scenario and has size
EPS = 1e-4 against entries of order one.  The expected FAIL sets of the
OperatorFrame checks were recorded from the check battery; the margins
behind them are wide (a defect's residual is at least 300 times its
tolerance, a tolerance of 0 is crossed by eigenvalues of about 1, and
passing checks stay at or below 0.11 of theirs), so the sets do not hang
on round-off.
"""

from __future__ import annotations

import dataclasses
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from tdnh.cli import _build_scenario
from tdnh.config import load_config
from tdnh.evolution import TimeGrid
from tdnh.linalg import PAULI_X, shape_generic
from tdnh.model import coefficient_value
from tdnh.operators import (
    CHECKS,
    OperatorFrame,
    build_frame,
    evaluate_checks,
    quasi_hermiticity_residual,
)
from tdnh.tolerances import DEFAULTS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EPS = 1e-4
MAPPED_CONFIGS = ("hermitian_loop", "hermitian_broken", "nonhermitian_drive")
FRAME_CHECKS = [name for name, (frame, _) in CHECKS.items() if frame is OperatorFrame]


@cache
def scenario_and_times(config: str):
    cfg = load_config(str(CONFIGS / f"{config}.cfg"))
    grid = TimeGrid(cfg.grid.start, cfg.grid.stop, 2000)
    return _build_scenario(dataclasses.replace(cfg, grid=grid)), grid.times()


# defect -> the scenario fields it replaces; each takes the built scenario
DEFECTS = {
    "none": lambda sc: {},
    "eta_dot_scaled": lambda sc: {"eta_dot": shape_generic(lambda t: (1.0 + EPS) * sc.eta_dot(t))},
    "rho_plus_sigma_x": lambda sc: {"rho": shape_generic(lambda t: sc.rho(t) + EPS * PAULI_X)},
    # H leaves the Dyson surface
    "x_im_shifted": lambda sc: {"path": dataclasses.replace(
        sc.path, x_im=shape_generic(lambda t: coefficient_value(sc.path.x_im, t) + EPS))},
    "h_plus_sigma_x": lambda sc: {"hermitian_hamiltonian": shape_generic(
        lambda t: sc.hermitian_hamiltonian(t) + EPS * PAULI_X)},
    # eta_dot and rho are kept
    "eta_scaled": lambda sc: {"eta": shape_generic(lambda t: sc.eta(t) @ np.diag([1.0 + EPS, 1.0]))},
    "signatures_plus_plus": lambda sc: {},   # the frame is built with (+1, +1)
    "omega_shifted_in_h": lambda sc: {"path": dataclasses.replace(sc.path, omega=sc.path.omega + EPS)},
}


def defect_frame(config: str, defect: str) -> OperatorFrame:
    sc, times = scenario_and_times(config)
    signatures = (1, 1) if defect == "signatures_plus_plus" else (1, -1)
    return build_frame(dataclasses.replace(sc, **DEFECTS[defect](sc)), times, signatures=signatures)


def failing(frame: OperatorFrame) -> set[str]:
    return {c.name for c in evaluate_checks(frame, FRAME_CHECKS).checks if c.verdict == "FAIL"}


# the checks that an H~ built from a wrong metric, map or map derivative breaks
_H_TILDE = {"quasi_hermiticity", "metric_orthonormality", "intertwiner_hermitian",
            "reality_intertwining", "reality_vector_map", "reality_alpha_imag"}
# and those that an H off the Dyson surface breaks as well
_OFF_SURFACE = _H_TILDE | {"dyson_residual", "metric_ode_residual", "energy_reality"}

EXPECTED = {
    "none": {config: set() for config in MAPPED_CONFIGS},
    "eta_dot_scaled": {config: _H_TILDE for config in MAPPED_CONFIGS},
    "rho_plus_sigma_x": {
        "hermitian_loop": _H_TILDE | {"metric_ode_residual", "c_hamiltonian_involution"},
        "hermitian_broken": {"c_hamiltonian_involution"},
        "nonhermitian_drive": _H_TILDE | {"metric_ode_residual"},
    },
    "x_im_shifted": {"hermitian_loop": _OFF_SURFACE - {"reality_alpha_imag"},
                     "hermitian_broken": _OFF_SURFACE - {"reality_alpha_imag"},
                     "nonhermitian_drive": _OFF_SURFACE},
    "h_plus_sigma_x": {config: {"dyson_residual"} for config in MAPPED_CONFIGS},
    "eta_scaled": {config: _H_TILDE | {"dyson_residual", "energy_reality"} for config in MAPPED_CONFIGS},
    "signatures_plus_plus": {config: {"intertwiner_not_positive"} for config in MAPPED_CONFIGS},
    "omega_shifted_in_h": {config: {"dyson_residual"} for config in MAPPED_CONFIGS},
}

# On hermitian_broken sigma_x is the static parity and also intertwines
# H~, so rho + EPS*sigma_x is another valid metric, not a missed defect.
# Only c_hamiltonian_involution sees it: it builds its C from the parity
# and the scenario's own metric.
VALID_METRICS = {("hermitian_broken", "rho_plus_sigma_x")}

CASES = [(config, defect) for defect in DEFECTS for config in MAPPED_CONFIGS]


@pytest.mark.parametrize("config, defect", CASES)
def test_defect_fails_exactly_the_checks_that_see_it(config, defect):
    assert failing(defect_frame(config, defect)) == EXPECTED[defect][config]


@pytest.mark.parametrize("config, defect", sorted(VALID_METRICS))
def test_valid_metric_is_not_a_miss(config, defect):
    frame = defect_frame(config, defect)
    report = evaluate_checks(frame, ["metric_positive", "quasi_hermiticity", "metric_ode_residual"])
    assert report.passed
    assert np.max(quasi_hermiticity_residual(frame.energy_op, PAULI_X)) <= \
        DEFAULTS["quasi_hermiticity"]
