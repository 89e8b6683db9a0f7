"""Config-driven runner.

Subcommands::

    tdnh run <config> [--csv PATH] [--report PATH] [--tol NAME=VALUE]...
    tdnh verify <config> [--report PATH] [--tol NAME=VALUE]...
    tdnh regimes <config> [--csv PATH]

``run`` executes the scenario's full check battery, writes a CSV time
series (t, instantaneous energies, static discriminant, geometric and
dynamical phases, per-check residuals) plus a text report with a JSON
mirror alongside, and exits 0 when every check passes, 1 when any fails,
2 on configuration or runtime errors.  ``verify`` is ``run`` without the
CSV.  ``regimes`` sweeps the static discriminant over a parameter grid.

Outputs are deterministic: identical configs produce byte-identical CSV
and report files (no timestamps), and numbers are written with 17
significant digits so tests can read them back at full precision.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

import numpy as np

from tdnh import tolerances
from tdnh.config import ConfigError, ScenarioConfig, load_config
from tdnh.evolution import (
    berry_phase_loop,
    berry_rates,
    closed_form_berry_hermitian_map,
    closed_form_berry_nonhermitian_map,
    dynamical_phase,
    geometric_phase,
    hermitian_frame_rates,
    path_closure_residual,
    scenario_eigen_trajectory,
    wrap_angle,
)
from tdnh.linalg import (
    Eigensystem,
    adjoint,
    commutator,
    entry_max,
    hermiticity_residual,
    operator_time_derivative,
    shape_generic,
)
from tdnh.model import (
    ConstraintError,
    ParameterPath,
    ScenarioConstants,
    ScenarioSolution,
    build_hermitian_map_scenario,
    build_nonhermitian_map_scenario,
    classify_discriminant,
    coefficient_value,
    discriminant_value,
    dyson_residual,
    hamiltonian,
    require_nonzero,
    static_constraint_residual,
    static_discriminant,
    static_energies,
    static_parity,
)
from tdnh.operators import (
    VerificationReport,
    c_op_from_eigensystem,
    metric_ode_residual,
    quasi_hermiticity_residual,
    scenario_energy_operator,
    unit_determinant,
    vector_map_residuals,
)

__all__ = ["main", "MAPPED_CHECKS", "STATIC_CHECKS", "render_report", "report_to_json"]

MAPPED_CHECKS = (
    "dyson_residual",
    "h_hermitian",
    "metric_positive",
    "quasi_hermiticity",
    "metric_ode_residual",
    "metric_orthonormality",
    "c_op_involution",
    "c_op_commutes_energy",
    "intertwiner_hermitian",
    "intertwiner_factorization",
    "intertwiner_not_positive",
    "reality_intertwining",
    "reality_vector_map",
    "reality_alpha_imag",
    "energy_reality",
    "c_hamiltonian_involution",
    "c_hamiltonian_evolution",
    "berry_imag_rate",
    "berry_hermitian_match",
    "berry_closed_form",
)

STATIC_CHECKS = (
    "static_constraint",
    "parity_involution",
    "parity_pseudo_hermiticity",
    "static_energy_closed_form",
)

_CLOSURE_TOL = 1e-10


_NUMBER = "%.17g"


def _fmt(x: float) -> str:
    return _NUMBER % float(x)


def _selected_checks(cfg: ScenarioConfig) -> tuple[str, ...]:
    available = STATIC_CHECKS if cfg.kind == "static" else MAPPED_CHECKS
    if cfg.checks is None:
        return available
    for name in cfg.checks:
        if name not in available:
            raise ConfigError(
                f"[checks] run: {name!r} is not a check of the '{cfg.kind}' kind"
            )
    # preserve canonical ordering, drop duplicates
    return tuple(name for name in available if name in cfg.checks)


def _build_scenario(cfg: ScenarioConfig) -> ScenarioSolution:
    constants = ScenarioConstants(c1=cfg.c1, c2=cfg.c2 or 0.0, omega=cfg.omega)
    times = cfg.grid.times()
    stride = max(1, cfg.grid.steps // 8)
    probes = list(times[::stride])
    if probes[-1] != times[-1]:
        probes.append(times[-1])
    if cfg.kind == "hermitian":
        return build_hermitian_map_scenario(
            cfg.coefficients["x_re"], cfg.coefficients["y_re"], cfg.coefficients["z_im"],
            constants, validate_at=probes,
        )
    return build_nonhermitian_map_scenario(
        cfg.coefficients["x_re"], cfg.coefficients["y_im"], cfg.coefficients["z_im"],
        constants, validate_at=probes,
    )


def _static_path(cfg: ScenarioConfig) -> ParameterPath:
    co = cfg.coefficients

    @shape_generic
    def derived_x_im(t):
        xr = coefficient_value(co["x_re"], t)
        require_nonzero(xr, t, "x_re vanishes at t={t}; cannot derive x_im")
        return -coefficient_value(co["y_re"], t) * coefficient_value(co["y_im"], t) / xr

    return ParameterPath(
        omega=cfg.omega,
        x_re=co["x_re"],
        x_im=derived_x_im if cfg.x_im_derived else co["x_im"],
        y_re=co["y_re"],
        y_im=co["y_im"],
        z_re=0.0,
        z_im=co["z_im"],
    )


_SERIES_HEADER = ["t", "e_plus_re", "e_plus_im", "e_minus_re", "e_minus_im", "discriminant",
                  "geom_plus", "geom_minus", "dyn_plus", "dyn_minus"]


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + adjoint(a))


def _mapped_residuals(scenario: ScenarioSolution, traj, rates: np.ndarray,
                      rates_h: np.ndarray, signatures: np.ndarray,
                      parities: np.ndarray | None, parity_static: bool) -> dict[str, np.ndarray]:
    """Every pointwise check of a mapped scenario as an (N,) column over the grid."""
    times = traj.grid.times()
    eye = np.eye(2)
    rho = scenario.rho(times)
    h = scenario.hamiltonian(times)
    h_energy = scenario_energy_operator(scenario, times)
    eigen = Eigensystem(traj.energies, traj.right, traj.left, "trajectory")
    c_op = c_op_from_eigensystem(eigen, signatures)
    intertwiner = rho @ c_op
    vector_map, alpha_imag = vector_map_residuals(intertwiner, eigen)
    zeros = np.zeros(times.shape)
    columns = {
        "dyson_residual": dyson_residual(scenario, times),
        "h_hermitian": hermiticity_residual(scenario.hermitian_hamiltonian(times)),
        "metric_positive": np.maximum(
            0.0, -np.min(np.linalg.eigvalsh(_hermitian_part(rho)), axis=1)),
        "quasi_hermiticity": quasi_hermiticity_residual(h_energy, rho),
        "metric_ode_residual": metric_ode_residual(scenario.hamiltonian, scenario.rho, times),
        "metric_orthonormality": entry_max(adjoint(traj.right) @ rho @ traj.right - eye),
        "c_op_involution": entry_max(c_op @ c_op - eye),
        "c_op_commutes_energy": entry_max(commutator(c_op, h_energy)),
        "intertwiner_hermitian": hermiticity_residual(intertwiner),
        "intertwiner_factorization": entry_max(np.linalg.solve(rho, intertwiner) - c_op),
        "intertwiner_not_positive": np.maximum(
            0.0, np.min(np.linalg.eigvalsh(_hermitian_part(intertwiner)), axis=1)),
        "reality_intertwining": entry_max(intertwiner @ h_energy - adjoint(h_energy) @ intertwiner),
        "reality_vector_map": vector_map,
        "reality_alpha_imag": alpha_imag,
        "energy_reality": np.max(np.abs(traj.energies.imag), axis=1),
        "c_hamiltonian_involution": zeros,
        "c_hamiltonian_evolution": zeros,
        "berry_imag_rate": np.max(np.abs(rates.imag), axis=1),
        "berry_hermitian_match": np.max(np.abs(rates - rates_h), axis=1),
    }
    if parities is not None:
        c_ham = parities @ unit_determinant(rho)
        columns["c_hamiltonian_involution"] = entry_max(c_ham @ c_ham - eye)
        if parity_static:
            @shape_generic
            def c_ham_fun(t):
                return static_parity(scenario.path, t) @ unit_determinant(scenario.rho(t))

            c_dot = operator_time_derivative(c_ham_fun, times)
            columns["c_hamiltonian_evolution"] = entry_max(1j * c_dot - commutator(h, c_ham))
    return columns


def _run_mapped(cfg: ScenarioConfig, tols: dict[str, float]):
    scenario = _build_scenario(cfg)
    grid = cfg.grid
    times = grid.times()
    signatures = np.asarray(cfg.signatures, dtype=float)

    traj = scenario_eigen_trajectory(scenario, grid)
    dyn = dynamical_phase(traj)
    selected = _selected_checks(cfg)
    closed = path_closure_residual(scenario.path, grid) <= _CLOSURE_TOL
    if closed and "berry_closed_form" in selected:
        # the loop phase integrates the same periodic rates; take them from it
        loop = berry_phase_loop(traj, scenario.path, scenario.rho, scenario.eta,
                                scenario.eta_dot, closure_tol=_CLOSURE_TOL)
        rates = loop.rates
    else:
        rates = berry_rates(traj, scenario.rho, scenario.eta, scenario.eta_dot, periodic=closed)
    rates_h = hermitian_frame_rates(traj, scenario.eta, periodic=closed, rho_fun=scenario.rho)
    geom = geometric_phase(rates, grid)

    # the parity-based involution exists only on the static-symmetry surface;
    # static_parity raises where it is undefined
    try:
        parities = static_parity(scenario.path, times)
    except ConstraintError:
        parities = None
    parity_static = parities is not None and bool(
        np.all(entry_max(parities - parities[0]) <= 1e-12))

    skipped: dict[str, str] = {}
    if "c_hamiltonian_involution" in selected and parities is None:
        skipped["c_hamiltonian_involution"] = "path off the static-symmetry surface"
    if "c_hamiltonian_evolution" in selected:
        if parities is None:
            skipped["c_hamiltonian_evolution"] = "path off the static-symmetry surface"
        elif not parity_static:
            skipped["c_hamiltonian_evolution"] = "parity varies along the path"

    columns = _mapped_residuals(scenario, traj, rates, rates_h, signatures, parities,
                                parity_static)
    report = VerificationReport()
    loop_value = None
    if "berry_closed_form" in selected:
        if not closed:
            skipped["berry_closed_form"] = "parameter path is not closed"
        else:
            try:
                if cfg.kind == "hermitian":
                    closed_form = closed_form_berry_hermitian_map(scenario.path, grid)
                else:
                    closed_form = closed_form_berry_nonhermitian_map(scenario, grid)
            except ValueError:
                skipped["berry_closed_form"] = "closed form undefined (angle through origin)"
            else:
                loop_value = max(abs(wrap_angle(p - closed_form)) for p in loop.phases)
        columns["berry_closed_form"] = np.full(times.shape, loop_value or 0.0)

    for name in selected:
        if name in skipped:
            report.add(name, 0.0, tols[name], skipped=True, note=skipped[name])
        elif name == "berry_closed_form":
            report.add(name, loop_value, tols[name])
        else:
            report.add(name, float(np.max(columns[name])), tols[name])

    conditions = ("reality_intertwining", "reality_vector_map", "reality_alpha_imag",
                  "intertwiner_hermitian")
    if all(name in selected for name in conditions):
        report.reality_guarantee_active = all(report.check(n).passed for n in conditions)

    series = np.column_stack(
        [times, traj.energies[:, 0].real, traj.energies[:, 0].imag,
         traj.energies[:, 1].real, traj.energies[:, 1].imag,
         discriminant_value(scenario.path, times), geom, dyn]
        + [columns[name] for name in selected]
    )
    return report, _SERIES_HEADER + [f"res_{name}" for name in selected], series


def _run_static(cfg: ScenarioConfig, tols: dict[str, float]):
    path = _static_path(cfg)
    times = cfg.grid.times()
    selected = _selected_checks(cfg)
    parity = static_parity(path, times)
    h = hamiltonian(path, times)
    e_plus, e_minus = static_energies(path, times)
    eigs = np.linalg.eigvals(h)

    def distance(e):
        return np.minimum(np.abs(e - eigs[:, 0]), np.abs(e - eigs[:, 1]))

    columns = {
        "static_constraint": static_constraint_residual(path, times),
        "parity_involution": entry_max(parity @ parity - np.eye(2)),
        "parity_pseudo_hermiticity": entry_max(parity @ h - adjoint(h) @ parity),
        "static_energy_closed_form": np.maximum(distance(e_plus), distance(e_minus)),
    }
    report = VerificationReport()
    for name in selected:
        report.add(name, float(np.max(columns[name])), tols[name])
    zeros = np.zeros(times.shape)
    series = np.column_stack(
        [times, e_plus.real, e_plus.imag, e_minus.real, e_minus.imag,
         discriminant_value(path, times), zeros, zeros, zeros, zeros]
        + [columns[name] for name in selected]
    )
    return report, _SERIES_HEADER + [f"res_{name}" for name in selected], series


def _run_regimes(cfg: ScenarioConfig, csv_path: str) -> None:
    if cfg.kind != "static":
        raise ConfigError("the regimes sweep needs a 'static' scenario config")
    if not cfg.regime_axes:
        raise ConfigError("the regimes sweep needs a [regimes] section with axis1")
    t0 = cfg.grid.start
    values = {
        name: coefficient_value(cfg.coefficients[name], t0)
        for name in ("x_re", "y_re", "y_im", "z_im")
    }
    axes = cfg.regime_axes
    sweeps = [sweep.ravel() for sweep in np.meshgrid(
        *[np.linspace(ax.lo, ax.hi, ax.count) for ax in axes], indexing="ij")]
    for ax, sweep in zip(axes, sweeps):
        values[ax.name] = sweep
    disc = static_discriminant(values["x_re"], values["y_re"], values["y_im"], values["z_im"])
    regimes = classify_discriminant(disc)
    row_format = ",".join([_NUMBER] * (len(axes) + 1)) + ",%s\n"
    with _open_output(csv_path) as fh:
        fh.write(",".join([ax.name for ax in axes] + ["discriminant", "regime"]) + "\n")
        for row, regime in zip(np.column_stack(sweeps + [disc]), regimes.tolist()):
            fh.write(row_format % (*row.tolist(), regime))


def render_report(report: VerificationReport, cfg: ScenarioConfig) -> str:
    lines = ["verification report",
             f"scenario {cfg.kind}",
             f"grid start={_fmt(cfg.grid.start)} stop={_fmt(cfg.grid.stop)} steps={cfg.grid.steps}",
             "signatures " + ",".join(f"{s:+d}" for s in cfg.signatures)]
    for c in report.checks:
        line = (f"check {c.name} residual={_fmt(c.residual)} "
                f"tolerance={_fmt(c.tolerance)} verdict={c.verdict}")
        if c.note:
            line += f" note={c.note}"
        lines.append(line)
    if report.reality_guarantee_active is not None:
        state = "active" if report.reality_guarantee_active else "inactive"
        lines.append(f"reality_guarantee {state}")
    lines.append(f"overall {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def report_to_json(report: VerificationReport, cfg: ScenarioConfig) -> str:
    payload = {
        "scenario": cfg.kind,
        "grid": {"start": cfg.grid.start, "stop": cfg.grid.stop, "steps": cfg.grid.steps},
        "signatures": list(cfg.signatures),
        "checks": [
            {
                "name": c.name,
                "residual": c.residual,
                "tolerance": c.tolerance,
                "verdict": c.verdict,
                "note": c.note,
            }
            for c in report.checks
        ],
        "reality_guarantee_active": report.reality_guarantee_active,
        "overall": "PASS" if report.passed else "FAIL",
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _open_output(path: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="")


def _write_text(path: str, text: str) -> None:
    with _open_output(path) as fh:
        fh.write(text)


def _write_csv(path: str, header: Sequence[str], series: np.ndarray) -> None:
    """Header plus one line per row of the (N, columns) series array,
    written as formatted so no copy of the whole text is held."""
    with _open_output(path) as fh:
        fh.write(",".join(header) + "\n")
        row_format = ",".join([_NUMBER] * series.shape[1]) + "\n"
        for row in series:
            fh.write(row_format % tuple(row.tolist()))


def _default_paths(config_path: str) -> tuple[str, str]:
    stem, _ = os.path.splitext(config_path)
    return stem + "_series.csv", stem + "_report.txt"


def _execute(cfg: ScenarioConfig, tol_args: list[str] | None, *, csv_path: str | None,
             report_path: str | None, emit_csv: bool) -> int:
    overrides = dict(cfg.tolerance_overrides)
    for item in tol_args or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
        try:
            overrides[name.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"--tol {item!r}: {exc}") from exc
    try:
        tols = tolerances.resolve(overrides)
    except KeyError as exc:
        raise ConfigError(f"unknown tolerance name {exc.args[0]!r}") from exc

    if cfg.kind == "static":
        report, header, series = _run_static(cfg, tols)
    else:
        report, header, series = _run_mapped(cfg, tols)

    if emit_csv and csv_path:
        _write_csv(csv_path, header, series)
    if report_path:
        _write_text(report_path, render_report(report, cfg))
        _write_text(report_path + ".json", report_to_json(report, cfg))
    sys.stdout.write(render_report(report, cfg))
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tdnh",
        description="verification and phase computation for driven two-level systems "
                    "with complex coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="full check battery with CSV time series")
    run_p.add_argument("config")
    run_p.add_argument("--csv", help="CSV output path (default: <config>_series.csv)")
    run_p.add_argument("--report", help="report output path (default: <config>_report.txt)")
    run_p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="override a named tolerance")

    verify_p = sub.add_parser("verify", help="checks only, no CSV")
    verify_p.add_argument("config")
    verify_p.add_argument("--report", help="report output path (default: <config>_report.txt)")
    verify_p.add_argument("--tol", action="append", metavar="NAME=VALUE")

    regimes_p = sub.add_parser("regimes", help="static discriminant map over a parameter grid")
    regimes_p.add_argument("config")
    regimes_p.add_argument("--csv", help="CSV output path (default: <config>_regimes.csv)")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        default_csv, default_report = _default_paths(args.config)
        if args.command == "regimes":
            csv_path = args.csv or cfg.csv_path or default_csv.replace("_series", "_regimes")
            _run_regimes(cfg, csv_path)
            sys.stdout.write(f"regime map written to {csv_path}\n")
            return 0
        if args.command == "run":
            csv_path = args.csv or cfg.csv_path or default_csv
            report_path = args.report or cfg.report_path or default_report
            return _execute(cfg, args.tol, csv_path=csv_path, report_path=report_path,
                            emit_csv=True)
        report_path = args.report or cfg.report_path or default_report
        return _execute(cfg, args.tol, csv_path=None, report_path=report_path, emit_csv=False)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except Exception as exc:  # runtime failures map to the error exit code
        sys.stderr.write(f"runtime error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
