"""Time-dependent non-Hermitian two-level systems.

Builds time-dependent metrics and Dyson maps for a driven two-level
Hamiltonian with complex Pauli coefficients, constructs the associated
energy operator and its involution/intertwiner pair, verifies the
algebraic conditions that keep the instantaneous energies real, and
accumulates dynamical and geometric phases along adiabatic trajectories.
"""

from tdnh.expr import (
    DualValue,
    EvalDomainError,
    ExprError,
    ParseError,
    UnknownIdentifierError,
    evaluate,
    evaluate_dual,
    parse,
    to_source,
)
from tdnh.linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DefectiveMatrixError,
    Eigensystem,
    commutator,
    eig_biorthogonal,
    hermiticity_residual,
    max_abs,
    metric_normalized,
    operator_time_derivative,
    positivity_check,
)
from tdnh.model import (
    ConstraintError,
    ParameterPath,
    ScenarioConstants,
    ScenarioSolution,
    ScenarioValidationError,
    build_hermitian_map_scenario,
    build_nonhermitian_map_scenario,
    discriminant,
    dyson_residual,
    hamiltonian,
    static_energies,
    static_parity,
)
from tdnh.operators import (
    MetricFlow,
    OperatorFrame,
    VerificationReport,
    build_frame,
    c_op_from_eigensystem,
    energy_operator,
    metric_ode_residual,
    metric_ode_solve,
    quasi_hermiticity_residual,
    scenario_energy_operator,
    unit_determinant,
    verify_reality_conditions,
)
from tdnh.evolution import (
    AdiabaticDecomposition,
    BerryLoopResult,
    EigenTrajectory,
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
    scenario_eigen_trajectory,
    tdse_integrate,
)
from tdnh.config import ConfigError, ScenarioConfig, load_config

__version__ = "0.1.0"
