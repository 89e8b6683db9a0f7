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

from tdnh import numfmt, tolerances
from tdnh.config import ConfigError, ScenarioConfig, load_config
from tdnh.evolution import dynamical_phase, geometric_phase, scenario_eigen_trajectory
from tdnh.model import (
    ScenarioConstants,
    ScenarioSolution,
    build_hermitian_map_scenario,
    build_nonhermitian_map_scenario,
    classify_discriminant,
    coefficient_value,
    discriminant_value,
    static_discriminant,
)
from tdnh.operators import (
    CHECKS,
    OperatorFrame,
    StaticFrame,
    VerificationReport,
    build_frame,
    build_static_frame,
    evaluate_checks,
)

__all__ = ["main", "MAPPED_CHECKS", "STATIC_CHECKS", "render_report", "report_to_json"]

MAPPED_CHECKS = tuple(name for name, (frame, _) in CHECKS.items() if frame is OperatorFrame)
STATIC_CHECKS = tuple(name for name, (frame, _) in CHECKS.items() if frame is StaticFrame)

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


_SERIES_HEADER = ["t", "e_plus_re", "e_plus_im", "e_minus_re", "e_minus_im", "discriminant",
                  "geom_plus", "geom_minus", "dyn_plus", "dyn_minus"]


def _with_series(report: VerificationReport, columns: list[np.ndarray]):
    """The report, the CSV header and the (N, columns) series: the
    _SERIES_HEADER columns, then each reported check's residuals."""
    series = np.column_stack(columns + [c.values for c in report.checks])
    return report, _SERIES_HEADER + [f"res_{c.name}" for c in report.checks], series


def _run_mapped(cfg: ScenarioConfig, tols: dict[str, float]):
    scenario = _build_scenario(cfg)
    times = cfg.grid.times()
    traj = scenario_eigen_trajectory(scenario, cfg.grid)
    dyn = dynamical_phase(traj)
    selected = _selected_checks(cfg)
    frame = build_frame(scenario, times, signatures=cfg.signatures, trajectory=traj)
    geom = geometric_phase(frame.rates[0], cfg.grid)  # a closed path's loop errors come first
    report = evaluate_checks(frame, selected, tols)
    e_plus, e_minus = traj.energies.T
    return _with_series(report, [times, e_plus.real, e_plus.imag, e_minus.real, e_minus.imag,
                                 discriminant_value(scenario.path, times), geom, dyn])


def _run_static(cfg: ScenarioConfig, tols: dict[str, float]):
    times = cfg.grid.times()
    selected = _selected_checks(cfg)
    frame = build_static_frame(cfg.static_path(), times)
    report = evaluate_checks(frame, selected, tols)
    e_plus, e_minus = frame.energies
    zeros = np.zeros(times.shape)
    return _with_series(report, [times, e_plus.real, e_plus.imag, e_minus.real, e_minus.imag,
                                 discriminant_value(frame.path, times), zeros, zeros, zeros, zeros])


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
    row_format = ",".join([numfmt.NUMBER] * (len(axes) + 1)) + ",%s\n"
    with _open_output(csv_path) as fh:
        fh.write(",".join([ax.name for ax in axes] + ["discriminant", "regime"]) + "\n")
        for row, regime in zip(np.column_stack(sweeps + [disc]), regimes.tolist()):
            fh.write(row_format % (*row.tolist(), regime))


def render_report(report: VerificationReport, cfg: ScenarioConfig) -> str:
    lines = ["verification report",
             f"scenario {cfg.kind}",
             f"grid start={numfmt.fmt(cfg.grid.start)} stop={numfmt.fmt(cfg.grid.stop)} "
             f"steps={cfg.grid.steps}",
             "signatures " + ",".join(f"{s:+d}" for s in cfg.signatures)]
    for c in report.checks:
        line = (f"check {c.name} residual={numfmt.fmt(c.residual)} "
                f"tolerance={numfmt.fmt(c.tolerance)} verdict={c.verdict}")
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
    """Header plus one line per row of the (N, columns) series array.  The
    rows are formatted and written one chunk of lines at a time, so no copy
    of the whole text is held."""
    with _open_output(path) as fh:
        fh.write(",".join(header) + "\n")
        for chunk in numfmt.csv_chunks(series):
            fh.write(chunk)


def _execute(cfg: ScenarioConfig, tol_args: list[str] | None, *, csv_path: str | None,
             report_path: str | None) -> int:
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
    except KeyError as exc:  # its message names the key
        raise ConfigError(exc.args[0]) from exc

    if cfg.kind == "static":
        report, header, series = _run_static(cfg, tols)
    else:
        report, header, series = _run_mapped(cfg, tols)

    if csv_path:
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
        stem, _ = os.path.splitext(args.config)
        if args.command == "regimes":
            csv_path = args.csv or cfg.csv_path or stem + "_regimes.csv"
            _run_regimes(cfg, csv_path)
            sys.stdout.write(f"regime map written to {csv_path}\n")
            return 0
        csv_path = None
        if args.command == "run":
            csv_path = args.csv or cfg.csv_path or stem + "_series.csv"
        report_path = args.report or cfg.report_path or stem + "_report.txt"
        return _execute(cfg, args.tol, csv_path=csv_path, report_path=report_path)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except Exception as exc:  # runtime failures map to the error exit code
        sys.stderr.write(f"runtime error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
