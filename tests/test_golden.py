"""Shipped configs against their recorded outputs (``tests/golden/``).

Exit codes, verdicts, notes, tolerances and the ``reality_guarantee``
line must be identical, and the regimes CSV byte-identical.  Numbers may
move by round-off only; the allowance of each quantity follows from the
round-off it carries, with ``scale`` the largest entry of the scenario
matrices (H, eta, rho, h) recorded with the golden files:

* entries computed directly from the matrices: ``K eps scale^2``;
* finite-difference residuals (central step h = 1e-5 |t| or 1e-5):
  ``K eps scale / h``;
* Berry-rate residuals, whose stencil divides states by 2 dt:
  ``K eps scale / (2 dt)``, times the grid length for the phases
  integrated from them;
* dynamical phases, trapezoids of the energies: ``K eps scale T``;

each plus ``K eps |recorded value|``, with K = 64.  These are far below
every check tolerance, so any level swap, stencil change or lost term
shows, while reordered floating-point operations do not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np
import pytest

from tdnh import cli
from tdnh.config import load_config

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_CONFIGS = ("hermitian_broken", "hermitian_loop", "nonhermitian_drive", "static_map")

EPS = float(np.finfo(float).eps)
K = 64.0
FD_STEP = 1e-5
FD_COLUMNS = ("dyson_residual", "metric_ode_residual", "c_hamiltonian_evolution")
BERRY_COLUMNS = ("berry_imag_rate", "berry_hermitian_match")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _allowance(column: str, scale: float, cfg) -> float:
    """Absolute round-off allowance of a CSV column or report residual."""
    name = column[4:] if column.startswith("res_") else column
    span = cfg.grid.stop - cfg.grid.start
    berry = K * EPS * scale / (2.0 * cfg.grid.dt)
    if name in FD_COLUMNS:
        return K * EPS * scale / FD_STEP
    if name in BERRY_COLUMNS:
        return berry
    if name.startswith("geom_") or name == "berry_closed_form":
        return berry * max(1.0, span)
    if name.startswith("dyn_"):
        return K * EPS * scale * max(1.0, span)
    return K * EPS * scale * scale


def _assert_close(label: str, new: float, old: float, allowance: float) -> None:
    bound = allowance + K * EPS * abs(old)
    assert abs(new - old) <= bound, (
        f"{label}: new {new!r} vs recorded {old!r}, |diff| {abs(new - old):.3e} > {bound:.3e}")


def _sampled(text: str) -> tuple[list[str], dict[int, list[float]]]:
    lines = text.splitlines()
    header = lines[0].split(",")[1:]
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        rows[int(fields[0])] = [float(x) for x in fields[1:]]
    return header, rows


@pytest.mark.parametrize("name", RUN_CONFIGS)
def test_run_matches_golden(name, tmp_path):
    golden = os.path.join(GOLDEN, name)
    meta = json.loads(_read(os.path.join(golden, "meta.json")))
    config = os.path.join(ROOT, meta["config"])
    cfg = load_config(config)
    csv = str(tmp_path / "series.csv")
    report = str(tmp_path / "report.txt")

    assert _run(["run", config, "--csv", csv, "--report", report]) == meta["exit_code"]

    # report: every line but the residual values is identical
    old_lines = _read(os.path.join(golden, "report.txt")).splitlines()
    new_lines = _read(report).splitlines()
    assert len(new_lines) == len(old_lines)
    for old, new in zip(old_lines, new_lines):
        if old.startswith("check "):
            assert new.split(" residual=")[0] == old.split(" residual=")[0]
            assert new.split(" tolerance=")[1] == old.split(" tolerance=")[1]
        else:
            assert new == old
    old_json = json.loads(_read(os.path.join(golden, "report.json")))
    new_json = json.loads(_read(report + ".json"))
    assert {k: v for k, v in new_json.items() if k != "checks"} == \
        {k: v for k, v in old_json.items() if k != "checks"}
    assert len(new_json["checks"]) == len(old_json["checks"])
    for old, new in zip(old_json["checks"], new_json["checks"]):
        assert {k: v for k, v in new.items() if k != "residual"} == \
            {k: v for k, v in old.items() if k != "residual"}
        _assert_close(f"{name} report {old['name']}", new["residual"], old["residual"],
                      _allowance(old["name"], meta["scale"], cfg))

    # CSV: same header and row count, sampled rows within round-off
    header, rows = _sampled(_read(os.path.join(golden, "series_sample.csv")))
    new_lines = _read(csv).splitlines()
    assert new_lines[0].split(",") == header
    assert len(new_lines) - 1 == meta["rows"]
    for k, old_row in rows.items():
        new_row = [float(x) for x in new_lines[1 + k].split(",")]
        for column, new, old in zip(header, new_row, old_row):
            _assert_close(f"{name} row {k} {column}", new, old,
                          _allowance(column, meta["scale"], cfg))


def test_regimes_byte_identical(tmp_path):
    golden = os.path.join(GOLDEN, "static_map_regimes")
    meta = json.loads(_read(os.path.join(golden, "meta.json")))
    csv = str(tmp_path / "regimes.csv")
    assert _run(["regimes", os.path.join(ROOT, meta["config"]), "--csv", csv]) == meta["exit_code"]
    with open(csv, "rb") as fh:
        raw = fh.read()
    lines = raw.decode("utf-8").splitlines()
    sample = _read(os.path.join(golden, "regimes_sample.csv")).splitlines()
    assert len(lines) == meta["lines"]
    assert "row," + lines[0] == sample[0]
    for line in sample[1:]:
        k, _, row = line.partition(",")
        assert lines[1 + int(k)] == row
    assert hashlib.sha256(raw).hexdigest() == meta["sha256"]
